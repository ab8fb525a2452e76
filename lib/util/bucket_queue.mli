(** Dial-style bucket queue: a priority queue over small non-negative
    integer priorities, backed by an array of buckets and a monotone
    scan cursor.

    Intended for monotone consumers — Dijkstra over positive integer
    weights bounded by [max_weight] pushes priorities that never fall
    below the last popped one, so a full drain of [p] pushes costs
    O(p + max_prio - min_prio) total instead of the O(p log p) of a
    comparison heap: a push into an empty queue starts the scan cursor
    at its own priority, not at 0.  Non-monotone use is still correct (pushing below the cursor
    rewinds it) but loses the amortized bound.

    Entries sharing a priority pop in LIFO order; callers must not
    depend on the order within one priority (Dijkstra's distance
    labels never do — they are the unique shortest distances). *)

type t

val create : ?capacity:int -> unit -> t
(** An empty queue.  [capacity] (default 64) pre-sizes the bucket
    array; it grows geometrically on demand.
    @raise Invalid_argument if [capacity < 1]. *)

val add : t -> prio:int -> int -> unit
(** Insert a value with the given priority.
    @raise Invalid_argument on a negative priority. *)

val pop_min : t -> (int * int) option
(** Remove and return [(prio, value)] with the least priority, or
    [None] when empty. *)

val pop_min_value : t -> int
(** {!pop_min} without allocating: remove the least-priority entry and
    return its value; its priority is {!last_prio}.
    @raise Invalid_argument when the queue is empty. *)

val last_prio : t -> int
(** The priority of the entry the last {!pop_min_value} (or {!pop_min})
    returned; meaningful until the next {!add} or {!clear}. *)

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Empty the queue and rewind the cursor, retaining the bucket array
    for reuse.  O(occupied bucket range). *)
