(** Bounded string-keyed cache with least-recently-used eviction:
    constant-time find/add on a hash table threaded through an intrusive
    recency list.  This is the {!Daemon}'s canonical-instance solve
    cache, kept separate so the policy is testable without sockets. *)

type 'a t

(** [create capacity] holds at most [capacity] bindings; inserting past
    that evicts the least recently used one.  A capacity of [0] is a
    valid always-empty cache (every {!add} is a no-op) — the "caching
    disabled" configuration.
    @raise Invalid_argument on a negative capacity. *)
val create : int -> 'a t

(** Bindings currently held. *)
val length : 'a t -> int

(** [find t key] returns the cached value and marks it most recently
    used. *)
val find : 'a t -> string -> 'a option

(** Membership without touching recency. *)
val mem : 'a t -> string -> bool

(** [add t key v] binds [key] to [v] as the most recently used entry,
    replacing any existing binding (and refreshing its recency),
    evicting the least recently used binding when full. *)
val add : 'a t -> string -> 'a -> unit

(** Fold over bindings, most recently used first. *)
val fold : 'a t -> init:'b -> f:('b -> string -> 'a -> 'b) -> 'b
