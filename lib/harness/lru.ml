(* String-keyed LRU map on an intrusive doubly-linked recency list.
   See lru.mli for the contract. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option; (* towards most recent *)
  mutable next : 'a node option; (* towards least recent *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
}

let create capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { capacity; tbl = Hashtbl.create (max 16 capacity); head = None; tail = None }

let length t = Hashtbl.length t.tbl

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let mem t key = Hashtbl.mem t.tbl key

let add t key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.tbl key with
    | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
    | None ->
        (if Hashtbl.length t.tbl >= t.capacity then
           match t.tail with
           | Some lru ->
               unlink t lru;
               Hashtbl.remove t.tbl lru.key
           | None -> assert false);
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.tbl key node;
        push_front t node

(* Most recent first — the recency order the eviction policy acts on,
   exposed so tests can assert it directly. *)
let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some node -> go (f acc node.key node.value) node.next
  in
  go init t.head
