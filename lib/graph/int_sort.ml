(* Monomorphic introsort on a flat int key array and its co-sorted
   payload array.  Median-of-three quicksort with Hoare-style scans and
   sentinels, insertion sort below a small cutoff, heapsort once the
   recursion depth budget is spent. *)

let cutoff = 16

let swap keys pay i j =
  let k = keys.(i) in
  keys.(i) <- keys.(j);
  keys.(j) <- k;
  let p = pay.(i) in
  pay.(i) <- pay.(j);
  pay.(j) <- p

let insertion keys pay lo hi =
  for i = lo + 1 to hi do
    let k = keys.(i) and p = pay.(i) in
    let j = ref (i - 1) in
    while !j >= lo && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      pay.(!j + 1) <- pay.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    pay.(!j + 1) <- p
  done

(* Max-heap sift-down over the segment [lo..hi]; the heap is rooted at
   [lo], so the children of [i] sit at [2i - lo + 1] and [2i - lo + 2]. *)
let rec sift keys pay lo hi i =
  let l = (2 * i) - lo + 1 in
  if l <= hi then begin
    let c = if l < hi && keys.(l + 1) > keys.(l) then l + 1 else l in
    if keys.(c) > keys.(i) then begin
      swap keys pay i c;
      sift keys pay lo hi c
    end
  end

let heapsort keys pay lo hi =
  let n = hi - lo + 1 in
  if n > 1 then begin
    for i = lo + (n / 2) - 1 downto lo do
      sift keys pay lo hi i
    done;
    for j = hi downto lo + 1 do
      swap keys pay lo j;
      sift keys pay lo (j - 1) lo
    done
  end

let rec intro keys pay lo hi depth =
  if hi - lo >= cutoff then
    if depth = 0 then heapsort keys pay lo hi
    else begin
      (* Median-of-three: order keys at lo/mid/hi, park the median at
         hi-1 as the pivot.  keys.(lo) <= pivot <= keys.(hi) then act
         as scan sentinels, so the inner loops need no bound checks of
         their own. *)
      let mid = lo + ((hi - lo) / 2) in
      if keys.(mid) < keys.(lo) then swap keys pay mid lo;
      if keys.(hi) < keys.(lo) then swap keys pay hi lo;
      if keys.(hi) < keys.(mid) then swap keys pay hi mid;
      swap keys pay mid (hi - 1);
      let pivot = keys.(hi - 1) in
      let i = ref lo and j = ref (hi - 1) in
      (try
         while true do
           incr i;
           while keys.(!i) < pivot do
             incr i
           done;
           decr j;
           while keys.(!j) > pivot do
             decr j
           done;
           if !i >= !j then raise Exit;
           swap keys pay !i !j
         done
       with Exit -> ());
      swap keys pay !i (hi - 1);
      intro keys pay lo (!i - 1) (depth - 1);
      intro keys pay (!i + 1) hi (depth - 1)
    end

let depth_budget n =
  let d = ref 0 and m = ref n in
  while !m > 1 do
    incr d;
    m := !m / 2
  done;
  2 * !d

let sort_pairs keys pay =
  let n = Array.length keys in
  if Array.length pay <> n then
    invalid_arg "Int_sort.sort_pairs: length mismatch";
  if n > 1 then begin
    intro keys pay 0 (n - 1) (depth_budget n);
    insertion keys pay 0 (n - 1)
  end
