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

(* graph6 body of an n-vertex graph: upper-triangle bits in column
   order (0,1), (0,2), (1,2), (0,3), ...  [column j f] calls [f] on
   every neighbour of the vertex at position j (in any order); column
   j's bits come from a scratch mark array filled that way — O(n^2 + m)
   overall instead of n^2/2 adjacency tests.  Shared by [encode] and
   the canonical search's leaves, which write a relabeled graph without
   building it. *)
let encode_columns ~force_long n ~column =
  let buf = Buffer.create (8 + (n * n / 12)) in
  add_size buf ~force_long n;
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
  let set i = mark.(i) <- true and clear i = mark.(i) <- false in
  for j = 1 to n - 1 do
    column j set;
    for i = 0 to j - 1 do
      push (if mark.(i) then 1 else 0)
    done;
    column j clear
  done;
  if !filled > 0 then
    Buffer.add_char buf (Char.chr ((!acc lsl (6 - !filled)) + 63));
  Buffer.contents buf

let encode ?(force_long = false) g =
  encode_columns ~force_long (Graph.n g) ~column:(fun j f ->
      Graph.iter_neighbors g j ~f)

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

(* The graph flattened once per labeling, CSR-shaped:
   [adj.(off.(v)) .. adj.(off.(v + 1) - 1)] are v's neighbours in
   increasing order.  [sigs] (same shape) and [order] are the
   refinement's scratch buffers. *)
type flat = {
  g : Graph.t;
  n : int;
  off : int array;
  adj : int array;
  sigs : int array;
  order : int array;
}

let flatten g =
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let adj = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    let i = ref off.(v) in
    Graph.iter_neighbors g v ~f:(fun w ->
        adj.(!i) <- w;
        incr i)
  done;
  { g; n; off; adj; sigs = Array.make off.(n) 0; order = Array.make n 0 }

(* Lexicographic order of a.(alo .. ahi - 1) and b.(blo .. bhi - 1), a
   proper prefix first: the order [compare] gives int lists. *)
let compare_slices (a : int array) alo ahi (b : int array) blo bhi =
  let i = ref alo and j = ref blo and c = ref 0 in
  while !c = 0 && !i < ahi && !j < bhi do
    c := Int.compare a.(!i) b.(!j);
    incr i;
    incr j
  done;
  if !c <> 0 then !c else Int.compare (ahi - !i) (bhi - !j)

(* Sort a.(lo .. hi - 1) ascending: insertion sort for the short rows
   of the graphs the exact search sees, a library sort for hubs. *)
let sort_slice (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

(* Iterated degree refinement (1-WL color refinement): a vertex's
   signature is its current color plus the sorted multiset of its
   neighbors' colors (its slice of [sigs]); vertices are renumbered by
   sorted signature until the partition stops splitting.  The signature
   order depends only on color values, never on vertex indices, so the
   resulting coloring is invariant under relabeling — the property the
   Daemon's cache key rests on. *)
let refine fl colors =
  let { n; off; adj; sigs; order; _ } = fl in
  let rec go colors ncolors =
    for v = 0 to n - 1 do
      for i = off.(v) to off.(v + 1) - 1 do
        sigs.(i) <- colors.(adj.(i))
      done;
      sort_slice sigs off.(v) off.(v + 1)
    done;
    let cmp a b =
      let c = Int.compare colors.(a) colors.(b) in
      if c <> 0 then c
      else compare_slices sigs off.(a) off.(a + 1) sigs off.(b) off.(b + 1)
    in
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    Array.stable_sort cmp order;
    let colors' = Array.make n 0 in
    let c = ref 0 in
    for i = 0 to n - 1 do
      let v = order.(i) in
      if i > 0 && cmp order.(i - 1) v <> 0 then incr c;
      colors'.(v) <- !c
    done;
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

(* Relabel vertex v to position perm.(v).  Only called with bijections,
   so the builder cannot see duplicates; only the sparse6 leaves above
   4096 vertices build their graph. *)
let apply_relabeling g perm =
  let b = Graph.Builder.create ~n:(Graph.n g) ~edges_hint:(Graph.m g) () in
  Array.iter
    (fun { Graph.u; v } -> Graph.Builder.add_edge b perm.(u) perm.(v))
    (Graph.edges g);
  Graph.Builder.finish b

(* The encoding of [g] relabeled by the discrete coloring [lab] (vertex
   v to position lab.(v), inverse [inv]): byte-identical to
   [encode (apply_relabeling g lab)], written straight from the
   labeling up to 4096 vertices. *)
let encode_leaf fl lab inv =
  let { off; adj; _ } = fl in
  if fl.n > 4096 then encode_sparse6 (apply_relabeling fl.g lab)
  else
    encode_columns ~force_long:false fl.n ~column:(fun j f ->
        let v = inv.(j) in
        for i = off.(v) to off.(v + 1) - 1 do
          f lab.(adj.(i))
        done)

(* Members, in index order, of the least color class with at least two
   (colors are refined, so 0..n-1); None when the partition is discrete.
   The *cell* choice is invariant (colors are); the member order inside
   it is not, which is why the search tries every member (up to twins
   and automorphisms). *)
let first_non_singleton n colors =
  let count = Array.make n 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) colors;
  Array.find_index (fun k -> k >= 2) count
  |> Option.map (fun c ->
         let members = Array.make count.(c) 0 in
         let k = ref 0 in
         Array.iteri
           (fun v c' ->
             if c' = c then begin
               members.(!k) <- v;
               incr k
             end)
           colors;
         members)

(* u and v are twins when N(u)\{v} = N(v)\{u}: open twins share N(u) =
   N(v), closed twins N[u] = N[v], and no vertex has twins of both
   kinds.  [rep.(v)] is the least member of v's class (the stable sort
   keeps equal rows in index order).  Swapping two twins is an
   automorphism fixing every other vertex, so twins share a cell until
   one is individualized, and the subtrees below them hold the same
   leaf encodings. *)
let twin_reps fl =
  let { n; off; adj; _ } = fl in
  let rep = Array.init n Fun.id in
  let group rows offs =
    let order = Array.init n Fun.id in
    let cmp u v =
      compare_slices rows offs.(u) offs.(u + 1) rows offs.(v) offs.(v + 1)
    in
    Array.stable_sort cmp order;
    for i = 1 to n - 1 do
      if cmp order.(i - 1) order.(i) = 0 then
        rep.(order.(i)) <- rep.(order.(i - 1))
    done
  in
  group adj off;
  (* Closed rows: v merged into its own sorted row. *)
  let coff = Array.init (n + 1) (fun v -> off.(v) + v) in
  let cadj = Array.make coff.(n) 0 in
  for v = 0 to n - 1 do
    let k = ref coff.(v) in
    let put w =
      cadj.(!k) <- w;
      incr k
    in
    for i = off.(v) to off.(v + 1) - 1 do
      if adj.(i) > v && (i = off.(v) || adj.(i - 1) < v) then put v;
      put adj.(i)
    done;
    if !k < coff.(v + 1) then put v
  done;
  group cadj coff;
  rep

(* Largest order given a search budget; above it only the first leaf is
   labeled. *)
let exact_bound = 64

(* Union-find over vertices, the orbits of a search node's stabilizer;
   [||] until a generator reaches the node. *)
let rec find uf v =
  let p = uf.(v) in
  if p = v then v
  else begin
    let r = find uf p in
    uf.(v) <- r;
    r
  end

(* Individualization-refinement search: branch on the members of the
   first non-singleton cell, refine, recurse; the canonical form is the
   lexicographically least leaf encoding.  Trying the whole cell is what
   restores the invariance the member order lacks.  Two prunings skip a
   member whose subtree is the image of an explored sibling's under an
   automorphism fixing every vertex individualized on the path, so its
   leaves have the same encodings and the least leaf does not move:
   - twins: one member per twin class;
   - orbits (McKay–Piperno): a leaf whose encoding equals the first or
     the best leaf's gives the automorphism gamma(v) = lab'^-1(lab(v)).
     Each node on the path keeps the orbits (a union-find) of the
     generators fixing its individualized vertices, updated as they
     arrive, and skips a member in an explored child's orbit.
   Pruned branches are never paid for, so wherever the search finishes
   its key is the one the unpruned search finds.  The first descent
   always completes; after it, the budget bounds pathological instances
   and on exhaustion the least leaf seen so far is still a faithful
   encoding of an isomorphic graph — a cache key that may merely
   miss. *)
let canonical g =
  let fl = flatten g in
  let n = fl.n in
  let twins = lazy (twin_reps fl) in
  let budget = ref (if n <= exact_bound then 50_000 else 0) in
  (* (encoding, inverse labeling) of the first and of the least leaf *)
  let first = ref None and best = ref None in
  let generators = ref [] in
  (* path.(d) is the vertex individualized below the node at depth d;
     orbits.(d) that node's union-find. *)
  let path = Array.make (n + 1) (-1) and orbits = Array.make (n + 1) [||] in
  let merge d gamma =
    if Array.length orbits.(d) = 0 then orbits.(d) <- Array.init n Fun.id;
    let uf = orbits.(d) in
    Array.iteri
      (fun v w ->
        let a = find uf v and b = find uf w in
        if a <> b then uf.(max a b) <- min a b)
      gamma
  in
  let rec fixes_path gamma depth =
    depth = 0
    || gamma.(path.(depth - 1)) = path.(depth - 1)
       && fixes_path gamma (depth - 1)
  in
  (* A new generator reaches every node of the path whose individualized
     vertices it fixes. *)
  let add_generator gamma depth =
    generators := gamma :: !generators;
    for d = 0 to depth - 1 do
      if fixes_path gamma d then merge d gamma
    done
  in
  let leaf lab depth =
    let inv = Array.make n 0 in
    Array.iteri (fun v p -> inv.(p) <- v) lab;
    let candidate = encode_leaf fl lab inv in
    let automorphism inv' =
      add_generator (Array.map (fun p -> inv'.(p)) lab) depth
    in
    match (!first, !best) with
    | Some (f, inv'), _ when String.equal f candidate -> automorphism inv'
    | _, Some (b, inv') when String.compare b candidate <= 0 ->
        if String.equal b candidate then automorphism inv'
    | _ ->
        if Option.is_none !first then first := Some (candidate, inv);
        best := Some (candidate, inv)
  in
  let rec search colors depth =
    match first_non_singleton n colors with
    | None -> leaf colors depth
    | Some members ->
        let rep = Lazy.force twins in
        orbits.(depth) <- [||];
        List.iter
          (fun gamma -> if fixes_path gamma depth then merge depth gamma)
          !generators;
        let in_explored_orbit explored v =
          let uf = orbits.(depth) in
          Array.length uf > 0
          &&
          let r = find uf v in
          List.exists (fun x -> find uf x = r) explored
        in
        let branch ((seen, explored) as acc) v =
          if
            List.exists (Int.equal rep.(v)) seen
            || in_explored_orbit explored v
          then acc
          else begin
            if Option.is_some !best then decr budget;
            if !budget < 0 then raise Exit;
            (* Any color outside 0..n-1 splits v into its own cell; the
               value is washed out by the renumbering pass in [refine]. *)
            let colors' = Array.copy colors in
            colors'.(v) <- n;
            path.(depth) <- v;
            search (refine fl colors') (depth + 1);
            (rep.(v) :: seen, v :: explored)
          end
        in
        ignore (Array.fold_left branch ([], []) members)
  in
  (try search (refine fl (Array.make n 0)) 0 with Exit -> ());
  fst (Option.get !best)
