(* graph6 / sparse6 codecs (McKay's formats).  Both share the same
   printable-ASCII size header: one byte for n <= 62, '~' + 3 bytes
   (18-bit) for n <= 258047, "~~" + 6 bytes (36-bit) beyond.  Decoding
   streams straight into a Graph.Builder — no intermediate edge list —
   so a million-edge sparse6 line materializes exactly one CSR graph. *)

(* The CSR substrate packs endpoints into 31 bits, so anything beyond
   2^31 - 1 vertices is rejected up front rather than misparsed. *)
let max_n = 0x7FFFFFFF

let strip_newline line =
  match String.index_opt line '\n' with
  | Some i -> String.sub line 0 i
  | None -> line

let byte line len i =
  if i >= len then invalid_arg "Graph6.decode: truncated input";
  let c = Char.code line.[i] in
  if c < 63 || c > 126 then invalid_arg "Graph6.decode: invalid character";
  c - 63

(* Parse a size header at [pos]; returns (n, position after header). *)
let parse_size line len pos =
  let byte = byte line len in
  if byte pos < 63 then (byte pos, pos + 1)
  else if byte (pos + 1) < 63 then
    (* '~' prefix: 18-bit size in the next three bytes. *)
    ( (byte (pos + 1) lsl 12) lor (byte (pos + 2) lsl 6) lor byte (pos + 3),
      pos + 4 )
  else begin
    (* "~~" prefix: 36-bit size in the next six bytes.  (byte at pos+1
       = 63 can only be the second '~' — the 18-bit form would put the
       top size bits there, and 63 is outside their range.) *)
    let v = ref 0 in
    for i = pos + 2 to pos + 7 do
      v := (!v lsl 6) lor byte i
    done;
    (!v, pos + 8)
  end

let order line =
  let pos = if String.length line > 0 && line.[0] = ':' then 1 else 0 in
  fst (parse_size line (String.length line) pos)

let add_size buf ~force_long n =
  if force_long || n > 258047 then begin
    Buffer.add_char buf '~';
    Buffer.add_char buf '~';
    for i = 5 downto 0 do
      Buffer.add_char buf (Char.chr (((n lsr (6 * i)) land 63) + 63))
    done
  end
  else if n <= 62 then Buffer.add_char buf (Char.chr (n + 63))
  else begin
    Buffer.add_char buf '~';
    Buffer.add_char buf (Char.chr (((n lsr 12) land 63) + 63));
    Buffer.add_char buf (Char.chr (((n lsr 6) land 63) + 63));
    Buffer.add_char buf (Char.chr ((n land 63) + 63))
  end

let encode ?(force_long = false) g =
  let n = Graph.n g in
  let buf = Buffer.create (8 + (n * n / 12)) in
  add_size buf ~force_long n;
  (* Upper-triangle bits in column order: (0,1), (0,2), (1,2), (0,3), ...
     Column j's bits come from a scratch mark array filled from row j —
     O(n^2 + m) overall instead of n^2/2 binary searches. *)
  let acc = ref 0 and filled = ref 0 in
  let push bit =
    acc := (!acc lsl 1) lor bit;
    incr filled;
    if !filled = 6 then begin
      Buffer.add_char buf (Char.chr (!acc + 63));
      acc := 0;
      filled := 0
    end
  in
  let mark = Array.make (max n 1) false in
  for j = 1 to n - 1 do
    Graph.iter_neighbors g j ~f:(fun i -> if i < j then mark.(i) <- true);
    for i = 0 to j - 1 do
      push (if mark.(i) then 1 else 0)
    done;
    Graph.iter_neighbors g j ~f:(fun i -> if i < j then mark.(i) <- false)
  done;
  if !filled > 0 then
    Buffer.add_char buf (Char.chr ((!acc lsl (6 - !filled)) + 63));
  Buffer.contents buf

let decode_graph6 line =
  let line = strip_newline line in
  let len = String.length line in
  if len = 0 then invalid_arg "Graph6.decode: empty input";
  let byte = byte line len in
  let n, start = parse_size line len 0 in
  if n > max_n then invalid_arg "Graph6.decode: graph too large";
  let bits_needed = n * (n - 1) / 2 in
  let data_bytes = (bits_needed + 5) / 6 in
  let bit idx =
    let b = byte (start + (idx / 6)) in
    (b lsr (5 - (idx mod 6))) land 1
  in
  if data_bytes > len - start then
    invalid_arg "Graph6.decode: truncated adjacency data";
  if len - start > data_bytes then
    invalid_arg "Graph6.decode: trailing bytes after adjacency data";
  let padding = (data_bytes * 6) - bits_needed in
  if padding > 0 && byte (start + data_bytes - 1) land ((1 lsl padding) - 1) <> 0
  then invalid_arg "Graph6.decode: nonzero padding bits";
  let b = Graph.Builder.create ~n () in
  let idx = ref 0 in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      if bit !idx = 1 then Graph.Builder.add_edge b i j;
      incr idx
    done
  done;
  Graph.Builder.finish b

(* Number of bits nauty uses for a sparse6 vertex index: enough to
   represent n-1, and at least 1. *)
let index_bits n =
  let k = ref 1 in
  while n - 1 >= 1 lsl !k do
    incr k
  done;
  !k

let decode_sparse6 line =
  let line = strip_newline line in
  let len = String.length line in
  if len = 0 then invalid_arg "Graph6.decode: empty input";
  if line.[0] <> ':' then
    invalid_arg "Graph6.decode: sparse6 input must start with ':'";
  let n, start = parse_size line len 1 in
  if n > max_n then invalid_arg "Graph6.decode: graph too large";
  let byte = byte line len in
  let total_bits = (len - start) * 6 in
  let bit idx =
    let b = byte (start + (idx / 6)) in
    (b lsr (5 - (idx mod 6))) land 1
  in
  let k = index_bits n in
  let b = Graph.Builder.create ~n () in
  let pos = ref 0 and v = ref 0 in
  (* (b, x) groups: b increments the current vertex, x > v jumps to x,
     x < v adds the edge {x, v}.  An incomplete trailing group and
     anything after the current vertex leaves the range are padding. *)
  (try
     while !pos + 1 + k <= total_bits && !v < n do
       let bflag = bit !pos in
       let x = ref 0 in
       for i = !pos + 1 to !pos + k do
         x := (!x lsl 1) lor bit i
       done;
       pos := !pos + 1 + k;
       if bflag = 1 then incr v;
       if !v >= n then raise Exit
       else if !x > !v then
         if !x >= n then raise Exit else v := !x
       else if !x = !v then
         invalid_arg "Graph6.decode: sparse6 self-loop"
       else Graph.Builder.add_edge b !x !v
     done
   with Exit -> ());
  Graph.Builder.finish b

let encode_sparse6 g =
  let n = Graph.n g in
  let buf = Buffer.create 32 in
  Buffer.add_char buf ':';
  add_size buf ~force_long:false n;
  let k = index_bits n in
  let acc = ref 0 and filled = ref 0 in
  let push bit =
    acc := (!acc lsl 1) lor bit;
    incr filled;
    if !filled = 6 then begin
      Buffer.add_char buf (Char.chr (!acc + 63));
      acc := 0;
      filled := 0
    end
  in
  let push_val x =
    for i = k - 1 downto 0 do
      push ((x lsr i) land 1)
    done
  in
  (* Edges sorted by (larger endpoint, smaller endpoint) are exactly
     the lower-adjacency prefixes of the CSR rows in vertex order. *)
  let cur = ref 0 in
  for v = 0 to n - 1 do
    Graph.iter_neighbors g v ~f:(fun u ->
        if u < v then
          if v = !cur then begin
            push 0;
            push_val u
          end
          else if v = !cur + 1 then begin
            cur := v;
            push 1;
            push_val u
          end
          else begin
            cur := v;
            push 1;
            push_val v;
            push 0;
            push_val u
          end)
  done;
  if !filled > 0 then begin
    (* nauty's padding rule: fill with 1s, except that when n is a
       power of two, at least k+1 padding bits remain, and the current
       vertex is n-2, a single 0 bit goes first — all-ones padding
       would otherwise decode as the edge {n-1, n-1}. *)
    let r = 6 - !filled in
    if r >= k + 1 && n >= 2 && n land (n - 1) = 0 && !cur = n - 2 then push 0;
    while !filled > 0 do
      push 1
    done
  end;
  Buffer.contents buf

let decode line =
  let stripped = strip_newline line in
  if String.length stripped > 0 && stripped.[0] = ':' then
    decode_sparse6 stripped
  else decode_graph6 stripped

(* --- canonical labeling --- *)

(* Iterated degree refinement (1-WL color refinement): a vertex's
   signature is its current color plus the sorted multiset of its
   neighbors' colors; vertices are renumbered by sorted signature until
   the partition stops splitting.  The signature order depends only on
   color values, never on vertex indices, so the resulting coloring is
   invariant under relabeling — the property the Daemon's cache key
   rests on. *)
let refine g colors =
  let n = Graph.n g in
  let rec go colors ncolors =
    let sigs =
      Array.init n (fun v ->
          ( colors.(v),
            List.sort compare
              (Graph.fold_neighbors g v ~init:[] ~f:(fun acc w ->
                   colors.(w) :: acc)) ))
    in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> compare sigs.(a) sigs.(b)) order;
    let colors' = Array.make n 0 in
    let c = ref 0 in
    Array.iteri
      (fun i v ->
        if i > 0 && compare sigs.(order.(i - 1)) sigs.(v) <> 0 then incr c;
        colors'.(v) <- !c)
      order;
    let nc = !c + 1 in
    (* A discrete partition is a fixed point: stop without the
       confirming pass (the exact search reaches a discrete leaf per
       node, so this halves its refinement work). *)
    if nc = n || nc = ncolors then colors' else go colors' nc
  in
  (* Starting "ncolors" below any possible count forces at least one
     renumbering pass, which maps whatever colors the caller supplied
     (e.g. an individualized vertex at an out-of-band value) onto the
     canonical 0..nc-1 range. *)
  go colors 0

(* Relabel vertex v to position perm.(v) and re-encode.  Only called
   with bijections, so the builder cannot see duplicates. *)
let apply_relabeling g perm =
  let b = Graph.Builder.create ~n:(Graph.n g) ~edges_hint:(Graph.m g) () in
  Array.iter
    (fun { Graph.u; v } -> Graph.Builder.add_edge b perm.(u) perm.(v))
    (Graph.edges g);
  Graph.Builder.finish b

(* Members, in index order, of the least color class with at least two
   (colors are refined, so 0..n-1); None when the partition is discrete.
   The *cell* choice is invariant (colors are); the member order inside
   it is not, which is why the search tries every member (up to twins). *)
let first_non_singleton n colors =
  let count = Array.make n 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) colors;
  Array.find_index (fun k -> k >= 2) count
  |> Option.map (fun c ->
         List.filter (fun v -> colors.(v) = c) (List.init n Fun.id))

(* u and v are twins when N(u)\{v} = N(v)\{u}: open twins share N(u) =
   N(v), closed twins N[u] = N[v], and no vertex has twins of both
   kinds.  [rep.(v)] is the least member of v's class.  Swapping two
   twins is an automorphism fixing every other vertex, so twins share a
   cell until one is individualized, and the subtrees below them hold
   the same leaf encodings. *)
let twin_reps g =
  let n = Graph.n g in
  let rep = Array.init n Fun.id in
  let group key =
    let keys = Array.init n key in
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) order;
    for i = 1 to n - 1 do
      if keys.(order.(i - 1)) = keys.(order.(i)) then
        rep.(order.(i)) <- rep.(order.(i - 1))
    done
  in
  let open_nbrs v = Array.to_list (Graph.neighbors g v) in
  group open_nbrs;
  group (fun v -> List.merge compare [ v ] (open_nbrs v));
  rep

let encode_auto g = if Graph.n g <= 4096 then encode g else encode_sparse6 g

(* Largest order given a search budget; above it only the first leaf is
   labeled. *)
let exact_bound = 64

(* Individualization-refinement search: branch on the members of the
   first non-singleton cell, one per twin class, refine, recurse; the
   canonical form is the lexicographically least leaf encoding.  Trying
   the whole cell is what restores the invariance the member order
   lacks.  The first descent always completes; after it, the budget
   bounds pathological instances (refinement-resistant regular graphs)
   and on exhaustion the least leaf seen so far is still a faithful
   encoding of an isomorphic graph — a cache key that may merely miss. *)
let canonical g =
  let n = Graph.n g in
  let twins = lazy (twin_reps g) in
  let budget = ref (if n <= exact_bound then 50_000 else 0) in
  let best = ref None in
  let rec search colors =
    match first_non_singleton n colors with
    | None -> (
        let candidate = encode_auto (apply_relabeling g colors) in
        match !best with
        | Some b when b <= candidate -> ()
        | _ -> best := Some candidate)
    | Some members ->
        let rep = Lazy.force twins in
        let branch seen v =
          if List.mem rep.(v) seen then seen
          else begin
            if Option.is_some !best then decr budget;
            if !budget < 0 then raise Exit;
            (* Any color outside 0..n-1 splits v into its own cell; the
               value is washed out by the renumbering pass in [refine]. *)
            let colors' = Array.copy colors in
            colors'.(v) <- n;
            search (refine g colors');
            rep.(v) :: seen
          end
        in
        ignore (List.fold_left branch [] members)
  in
  (try search (refine g (Array.make n 0)) with Exit -> ());
  Option.get !best
