(* Dial-style bucket queue over small non-negative integer priorities.
   A monotone consumer (Dijkstra with bounded positive arc weights)
   pays O(1) per push and amortized O(1) per pop plus one final sweep
   of max_prio empty buckets, so a full drain is O(pushes + max_prio).

   The cursor never moves backward while pops stay monotone; pushing
   below the cursor (allowed, but not the intended use) rewinds it.  A
   push into an empty queue moves the cursor to its priority, so a
   drain that starts high (a dynamic shortest-path update re-settling
   nodes far from the destination) never sweeps the empty buckets
   below its first push. *)

type t = {
  mutable buckets : int list array;
  mutable cursor : int;
      (* no occupied bucket strictly below this index; set to the
         priority of a push into the empty queue *)
  mutable limit : int;  (* no occupied bucket at or above this index *)
  mutable size : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Bucket_queue.create: capacity must be positive";
  { buckets = Array.make capacity []; cursor = 0; limit = 0; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t prio =
  let cap = Array.length t.buckets in
  if prio >= cap then begin
    let buckets = Array.make (max (prio + 1) (2 * cap)) [] in
    Array.blit t.buckets 0 buckets 0 cap;
    t.buckets <- buckets
  end

let add t ~prio v =
  if prio < 0 then invalid_arg "Bucket_queue.add: negative priority";
  grow t prio;
  t.buckets.(prio) <- v :: t.buckets.(prio);
  (* An empty queue has no occupied bucket anywhere, so the cursor may
     jump straight to the first push. *)
  if t.size = 0 || prio < t.cursor then t.cursor <- prio;
  if prio >= t.limit then t.limit <- prio + 1;
  t.size <- t.size + 1

let rec pop_min t =
  if t.size = 0 then None
  else
    match t.buckets.(t.cursor) with
    | v :: rest ->
        t.buckets.(t.cursor) <- rest;
        t.size <- t.size - 1;
        Some (t.cursor, v)
    | [] ->
        t.cursor <- t.cursor + 1;
        pop_min t

(* [pop_min] without the option and tuple: the priority of the entry
   just returned is where the cursor stopped. *)
let rec pop_min_value t =
  if t.size = 0 then invalid_arg "Bucket_queue.pop_min_value: empty queue"
  else
    match t.buckets.(t.cursor) with
    | v :: rest ->
        t.buckets.(t.cursor) <- rest;
        t.size <- t.size - 1;
        v
    | [] ->
        t.cursor <- t.cursor + 1;
        pop_min_value t

let last_prio t = t.cursor

let clear t =
  if t.size > 0 then
    for i = t.cursor to t.limit - 1 do
      t.buckets.(i) <- []
    done;
  t.cursor <- 0;
  t.limit <- 0;
  t.size <- 0
