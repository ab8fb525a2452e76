type change = { arc : int; before : int; after : int }

type dirty = { dst : int; changed : int list }

(* What a weight change does to one destination's DAG, decided from
   the previous distance labels alone (the screening step). *)
type effect =
  | Clean  (* neither distances nor any next-hop set can move *)
  | Patch  (* distances provably unchanged; only the changed arc's
              tail node gains or loses that arc in its next-hop set *)
  | Rebuild  (* distances may move: dynamic label update *)

(* [after = Dijkstra.suppressed] (arc failure) rides the weight-
   increase branch below without special-casing: the branch never adds
   [after] to anything, it only asks whether the arc was tight under
   [before] — exactly the question "did any shortest path use the
   failed arc?". *)
let classify dag ~u ~v ~before ~after =
  let dv = dag.Spf.dist.(v) in
  if dv = Dijkstra.unreachable then Clean
  else begin
    (* [u] reaches the destination whenever [v] does (through this very
       arc), so [du] is finite and [before + dv >= du]. *)
    let du = dag.Spf.dist.(u) in
    if after < before then begin
      let c = after + dv in
      if c < du then Rebuild
      else if c = du then Patch (* arc becomes tight; no distance moves *)
      else Clean
    end
    else if after > before then begin
      if before + dv = du then
        (* The arc was on a shortest path.  If [u] keeps another tight
           arc, every node retains a shortest path avoiding this arc
           (induction on distance), so only [u]'s next-hop set shrinks;
           otherwise distances upstream of [u] may grow. *)
        if Array.length dag.Spf.next_arcs.(u) >= 2 then Patch else Rebuild
      else Clean
    end
    else Clean
  end

module Metrics = Dtr_util.Metrics
module Bucket_queue = Dtr_util.Bucket_queue

let m_updates =
  Metrics.counter ~help:"Delta-SPF update calls (one per probe per group)."
    "dtr_spf_delta_updates_total"

let m_rebuilds =
  Metrics.counter
    ~help:"Destinations whose labels may move (dynamic label update) in delta-SPF updates."
    "dtr_spf_delta_rebuilds_total"

let m_patches =
  Metrics.counter
    ~help:"Destinations patched (membership-only) by delta-SPF updates."
    "dtr_spf_delta_patches_total"

let m_dirty =
  Metrics.histogram
    ~help:"Dirty destinations (rebuilt or patched) per delta-SPF update."
    "dtr_spf_delta_dirty"

let m_moved =
  Metrics.histogram
    ~help:"Distance labels moved per label-moving destination in delta-SPF updates."
    "dtr_spf_delta_moved_nodes"

(* Scratch arena of the dynamic update, sized lazily from the graph.
   Node marks are epoch stamps ([mark.(v) = epoch] means "set in the
   current pass"), so no array is ever swept clean between passes. *)
type workspace = {
  mutable w : int array;  (* arcs: weights as the change replay stands *)
  mutable touched : int array;  (* nodes whose label was written *)
  mutable touched_len : int;
  mutable mark : int array;  (* per-destination: in [touched] *)
  mutable in_a : int array;  (* per-change: in the affected set *)
  mutable cnt_mark : int array;  (* per-change: [cnt] initialized *)
  mutable cnt : int array;  (* tight out-arcs not yet into the affected set *)
  mutable aff : int array;  (* the affected set, in discovery order *)
  mutable moved : int array;  (* per-destination: label moved *)
  mutable row_mark : int array;  (* per-destination: row re-checked *)
  mutable row_epoch : int;
  mutable rows : int array array;  (* the next-hop rows being derived *)
  mutable rows_owned : bool;  (* [rows] is a copy, not the old dag's *)
  mutable changed : int list;  (* nodes whose row changed *)
  mutable epoch : int;
  mutable patches : int;  (* screen verdicts of the current destination *)
  mutable rebuilds : int;
  queue : Bucket_queue.t;
}

let workspace () =
  {
    w = [||];
    touched = [||];
    touched_len = 0;
    mark = [||];
    in_a = [||];
    cnt_mark = [||];
    cnt = [||];
    aff = [||];
    moved = [||];
    row_mark = [||];
    row_epoch = 0;
    rows = [||];
    rows_owned = false;
    changed = [];
    epoch = 0;
    patches = 0;
    rebuilds = 0;
    queue = Bucket_queue.create ();
  }

let ensure ws g =
  let n = Graph.node_count g and m = Graph.arc_count g in
  if Array.length ws.mark < n then begin
    ws.touched <- Array.make n 0;
    ws.mark <- Array.make n 0;
    ws.in_a <- Array.make n 0;
    ws.cnt_mark <- Array.make n 0;
    ws.cnt <- Array.make n 0;
    ws.aff <- Array.make n 0;
    ws.moved <- Array.make n 0;
    ws.row_mark <- Array.make n 0
  end;
  if Array.length ws.w < m then ws.w <- Array.make m 0

let next_epoch ws =
  ws.epoch <- ws.epoch + 1;
  ws.epoch

let unreachable = Dijkstra.unreachable

let suppressed = Dijkstra.suppressed

(* The labels of one destination under replay: the previous dag's
   array, copied on the first write (dags are immutable once built). *)
type labels = { mutable d : int array; mutable owned : bool; dest_epoch : int }

let set ws st x v =
  if not st.owned then begin
    st.d <- Array.copy st.d;
    st.owned <- true
  end;
  if ws.mark.(x) <> st.dest_epoch then begin
    ws.mark.(x) <- st.dest_epoch;
    ws.touched.(ws.touched_len) <- x;
    ws.touched_len <- ws.touched_len + 1
  end;
  st.d.(x) <- v

(* Number of tight out-arcs of [x] under the replay weights. *)
let count_tight g w d x =
  let off = Graph.out_offsets g and ids = Graph.out_arc_ids g in
  let dsts = Graph.dsts g in
  let dx = d.(x) in
  let c = ref 0 in
  for k = off.(x) to off.(x + 1) - 1 do
    let id = ids.(k) in
    let wi = w.(id) and dy = d.(dsts.(id)) in
    if wi <> suppressed && dy <> unreachable && wi + dy = dx then incr c
  done;
  !c

(* Dial-style settle of the nodes in the queue: a node popped at its
   current label relaxes its in-arcs, and [admit z] decides which
   tails may be lowered (any node for a weight decrease, only the
   affected set after an increase).  Labels only ever fall here, so a
   popped entry above the node's label is stale and skipped. *)
let drain ws g st ~admit =
  let off = Graph.in_offsets g and ids = Graph.in_arc_ids g in
  let srcs = Graph.srcs g and w = ws.w in
  let q = ws.queue in
  while not (Bucket_queue.is_empty q) do
    let x = Bucket_queue.pop_min_value q in
    let p = Bucket_queue.last_prio q in
    if p = st.d.(x) then
      for k = off.(x) to off.(x + 1) - 1 do
        let id = ids.(k) in
        let wi = w.(id) in
        let z = srcs.(id) in
        if wi <> suppressed && admit z then begin
          let c = p + wi in
          if c < st.d.(z) then begin
            set ws st z c;
            Bucket_queue.add q ~prio:c z
          end
        end
      done
  done

let admit_all _ = true

(* Weight decrease of arc [(u, v)] to [after]: if the arc now shortens
   [u]'s path, lower [u] and relax backwards from it. *)
let decrease ws g st ~u ~v ~after =
  let dv = st.d.(v) in
  if dv <> unreachable && after + dv < st.d.(u) then begin
    Bucket_queue.clear ws.queue;
    set ws st u (after + dv);
    Bucket_queue.add ws.queue ~prio:(after + dv) u;
    drain ws g st ~admit:admit_all
  end

(* Weight increase (or suppression) of a tight arc [(u, v)]
   (Ramalingam–Reps).  The affected set A — nodes whose every shortest
   path used the arc — grows upstream from [u]: a node joins once each
   of its tight out-arcs leads into A.  A's labels are then re-settled
   from their boundary (the best arc into a node outside A); nodes
   with no such path stay unreachable. *)
let increase ws g st ~u ~v ~before =
  let d = st.d in
  let dv = d.(v) in
  let w = ws.w in
  if
    dv <> unreachable && before <> suppressed
    && before + dv = d.(u)
    && count_tight g w d u = 0
  then begin
    let e = next_epoch ws in
    let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
    let srcs = Graph.srcs g in
    ws.in_a.(u) <- e;
    ws.aff.(0) <- u;
    let na = ref 1 and i = ref 0 in
    while !i < !na do
      let y = ws.aff.(!i) in
      incr i;
      let dy = d.(y) in
      for k = in_off.(y) to in_off.(y + 1) - 1 do
        let id = in_ids.(k) in
        let x = srcs.(id) in
        let wi = w.(id) in
        if ws.in_a.(x) <> e && wi <> suppressed && wi + dy = d.(x) then begin
          if ws.cnt_mark.(x) <> e then begin
            ws.cnt_mark.(x) <- e;
            ws.cnt.(x) <- count_tight g w d x
          end;
          ws.cnt.(x) <- ws.cnt.(x) - 1;
          if ws.cnt.(x) = 0 then begin
            ws.in_a.(x) <- e;
            ws.aff.(!na) <- x;
            incr na
          end
        end
      done
    done;
    let na = !na in
    for j = 0 to na - 1 do
      set ws st ws.aff.(j) unreachable
    done;
    let q = ws.queue in
    Bucket_queue.clear q;
    let out_off = Graph.out_offsets g and out_ids = Graph.out_arc_ids g in
    let dsts = Graph.dsts g in
    for j = 0 to na - 1 do
      let x = ws.aff.(j) in
      let best = ref unreachable in
      for k = out_off.(x) to out_off.(x + 1) - 1 do
        let id = out_ids.(k) in
        let y = dsts.(id) in
        let wi = w.(id) and dy = st.d.(y) in
        if ws.in_a.(y) <> e && wi <> suppressed && dy <> unreachable then
          if wi + dy < !best then best := wi + dy
      done;
      if !best <> unreachable then begin
        set ws st x !best;
        Bucket_queue.add q ~prio:!best x
      end
    done;
    drain ws g st ~admit:(fun z -> ws.in_a.(z) = e)
  end

(* Apply the changes one at a time to the labels, each against the
   weights as the replay stands. *)
let rec replay ws g st = function
  | [] -> ()
  | c :: rest ->
      ws.w.(c.arc) <- c.after;
      let u = Graph.src g c.arc and v = Graph.dst g c.arc in
      if c.after < c.before then decrease ws g st ~u ~v ~after:c.after
      else increase ws g st ~u ~v ~before:c.before;
      replay ws g st rest

(* Whether [v]'s next-hop row under [weights]/[dist] is exactly [old]
   (the filter of {!Spf.node_next_arcs}, compared without building
   the row). *)
let row_unchanged g ~weights ~dist ~dst v old =
  if v = dst || dist.(v) = unreachable then Array.length old = 0
  else begin
    let off = Graph.out_offsets g and ids = Graph.out_arc_ids g in
    let dsts = Graph.dsts g in
    let dv = dist.(v) and n_old = Array.length old in
    let j = ref 0 and same = ref true in
    for k = off.(v) to off.(v + 1) - 1 do
      if !same then begin
        let id = ids.(k) in
        let wi = weights.(id) and dy = dist.(dsts.(id)) in
        if wi <> suppressed && dy <> unreachable && wi + dy = dv then
          if !j < n_old && old.(!j) = id then incr j else same := false
      end
    done;
    !same && !j = n_old
  end

(* Re-filter [x]'s next-hop row once per destination; a row that
   differs goes into a copy of the old rows (made on the first
   difference), and [x] into [ws.changed] unless it is a moved node
   (those are listed anyway). *)
let check_row ws g ~weights ~dist ~dag ~mv x =
  if ws.row_mark.(x) <> ws.row_epoch then begin
    ws.row_mark.(x) <- ws.row_epoch;
    let dst = dag.Spf.dst in
    if not (row_unchanged g ~weights ~dist ~dst x dag.Spf.next_arcs.(x)) then begin
      if not ws.rows_owned then begin
        ws.rows <- Array.copy ws.rows;
        ws.rows_owned <- true
      end;
      ws.rows.(x) <-
        (if x = dst || dist.(x) = unreachable then [||]
         else Spf.node_next_arcs g ~weights ~dist x);
      if ws.moved.(x) <> mv then ws.changed <- x :: ws.changed
    end
  end

let rec check_tails ws g ~weights ~dist ~dag ~mv = function
  | [] -> ()
  | c :: rest ->
      check_row ws g ~weights ~dist ~dag ~mv (Graph.src g c.arc);
      check_tails ws g ~weights ~dist ~dag ~mv rest

(* One destination's dag under the new weights, derived from the old
   one: replay the changes on the labels, then re-filter only the
   next-hop rows that can differ — changed-arc tails, moved nodes, and
   in-neighbours joined to a moved node by an arc tight under the old
   or the new labels — and splice the moved nodes into the old
   traversal order.  Returns the dag and the nodes whose row or label
   changed. *)
let derive ws g ~weights ~dag ~changes ~relabel =
  let dst = dag.Spf.dst in
  let old = dag.Spf.dist in
  let st = { d = old; owned = false; dest_epoch = next_epoch ws } in
  ws.touched_len <- 0;
  if relabel then begin
    List.iter (fun c -> ws.w.(c.arc) <- c.before) changes;
    replay ws g st changes
  end;
  let dist = st.d in
  (* Moved nodes: the written labels that ended elsewhere, compacted
     in place at the front of [touched]. *)
  let mv = next_epoch ws in
  let touched = ws.touched in
  let n_moved = ref 0 in
  for j = 0 to ws.touched_len - 1 do
    let x = touched.(j) in
    if dist.(x) <> old.(x) then begin
      ws.moved.(x) <- mv;
      touched.(!n_moved) <- x;
      incr n_moved
    end
  done;
  let n_moved = !n_moved in
  if n_moved > 0 && Metrics.enabled () then
    Metrics.observe m_moved (float_of_int n_moved);
  (* Re-check every candidate row once. *)
  ws.row_epoch <- next_epoch ws;
  ws.rows <- dag.Spf.next_arcs;
  ws.rows_owned <- false;
  ws.changed <- [];
  check_tails ws g ~weights ~dist ~dag ~mv changes;
  let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
  let srcs = Graph.srcs g in
  for j = 0 to n_moved - 1 do
    let y = touched.(j) in
    ws.changed <- y :: ws.changed;
    check_row ws g ~weights ~dist ~dag ~mv y;
    let oy = old.(y) and dy = dist.(y) in
    for k = in_off.(y) to in_off.(y + 1) - 1 do
      let id = in_ids.(k) in
      let x = srcs.(id) in
      (* A changed arc's tail is re-checked above, so the new weight
         stands in for the old one here. *)
      let wi = weights.(id) in
      if
        wi <> suppressed
        && ((oy <> unreachable && wi + oy = old.(x))
           || (dy <> unreachable && wi + dy = dist.(x)))
      then check_row ws g ~weights ~dist ~dag ~mv x
    done
  done;
  let order_desc =
    if n_moved = 0 then dag.Spf.order_desc
    else begin
      (* Unmoved nodes keep their labels, so the old order minus the
         moved nodes is still sorted; merge the (re-sorted, still
         reachable) moved nodes back in under the same order. *)
      let ins = ws.aff in
      let n_ins = ref 0 in
      for j = 0 to n_moved - 1 do
        let x = touched.(j) in
        if dist.(x) <> unreachable then begin
          ins.(!n_ins) <- x;
          incr n_ins
        end
      done;
      let n_ins = !n_ins in
      Spf.sort_order ~dist ins n_ins;
      let prev = dag.Spf.order_desc in
      let n_prev = Array.length prev in
      let kept = ref 0 in
      for j = 0 to n_prev - 1 do
        if ws.moved.(prev.(j)) <> mv then incr kept
      done;
      let out = Array.make (!kept + n_ins) 0 in
      let pi = ref 0 and ii = ref 0 in
      for o = 0 to Array.length out - 1 do
        while !pi < n_prev && ws.moved.(prev.(!pi)) = mv do
          incr pi
        done;
        if !ii < n_ins && (!pi >= n_prev || Spf.precedes dist ins.(!ii) prev.(!pi))
        then begin
          out.(o) <- ins.(!ii);
          incr ii
        end
        else begin
          out.(o) <- prev.(!pi);
          incr pi
        end
      done;
      out
    end
  in
  let dag =
    if dist == old && not ws.rows_owned then dag
    else { Spf.dst; dist; next_arcs = ws.rows; order_desc }
  in
  let changed = ws.changed in
  ws.rows <- [||];
  ws.changed <- [];
  (dag, changed)

(* Count the changes' screen verdicts for one destination into
   [ws.patches] / [ws.rebuilds] (a plain recursion: this runs once per
   destination per probe). *)
let rec screen ws dag = function
  | [] -> ()
  | (c, u, v) :: rest ->
      (match classify dag ~u ~v ~before:c.before ~after:c.after with
      | Clean -> ()
      | Patch -> ws.patches <- ws.patches + 1
      | Rebuild -> ws.rebuilds <- ws.rebuilds + 1);
      screen ws dag rest

let validate g ~weights ~prev ~changes =
  if Array.length weights <> Graph.arc_count g then
    invalid_arg "Spf_delta.update: weights length mismatch";
  if Array.length prev <> Graph.node_count g then
    invalid_arg "Spf_delta.update: prev dags length mismatch";
  List.iter
    (fun c ->
      if c.arc < 0 || c.arc >= Graph.arc_count g then
        invalid_arg "Spf_delta.update: arc id out of range";
      if c.before <= 0 || c.after <= 0 then
        invalid_arg "Spf_delta.update: weights must be positive";
      if weights.(c.arc) <> c.after then
        invalid_arg "Spf_delta.update: weights/changes disagree")
    changes;
  let rec distinct = function
    | [] -> ()
    | c :: rest ->
        if List.exists (fun c' -> c'.arc = c.arc) rest then
          invalid_arg "Spf_delta.update: duplicate arc in changes";
        distinct rest
  in
  distinct changes

let update_rows ?ws ?active g ~weights ~prev ~changes =
  validate g ~weights ~prev ~changes;
  (match active with
  | Some a when Array.length a <> Graph.node_count g ->
      invalid_arg "Spf_delta.update: active length mismatch"
  | _ -> ());
  let ws = match ws with Some w -> w | None -> workspace () in
  let changes = List.filter (fun c -> c.before <> c.after) changes in
  if changes = [] then (prev, [])
  else begin
    ensure ws g;
    Array.blit weights 0 ws.w 0 (Array.length weights);
    let endpoints =
      List.map
        (fun c -> (c, Graph.src g c.arc, Graph.dst g c.arc))
        changes
    in
    let mon = Metrics.enabled () in
    let rebuilt = ref 0 and patched = ref 0 in
    let n = Graph.node_count g in
    let dags = Array.copy prev in
    let dirty = ref [] in
    let is_active =
      match active with None -> fun _ -> true | Some a -> fun t -> a.(t)
    in
    for t = n - 1 downto 0 do
      if is_active t then begin
        let dag = prev.(t) in
        (* The Patch classification is only sound in isolation: two
           simultaneous changes can each look membership-only yet move
           distances together (e.g. both tight arcs of one node raised
           at once), so any destination flagged by more than one change
           has its labels replayed. *)
        ws.patches <- 0;
        ws.rebuilds <- 0;
        screen ws dag endpoints;
        let patches = ws.patches and rebuilds = ws.rebuilds in
        let relabel = rebuilds > 0 || patches > 1 in
        if relabel || patches = 1 then begin
          let dag, changed = derive ws g ~weights ~dag ~changes ~relabel in
          dags.(t) <- dag;
          if mon then if relabel then incr rebuilt else incr patched;
          dirty := { dst = t; changed } :: !dirty
        end
      end
    done;
    if mon then begin
      Metrics.incr_counter m_updates;
      Metrics.add m_rebuilds !rebuilt;
      Metrics.add m_patches !patched;
      Metrics.observe m_dirty (float_of_int (!rebuilt + !patched))
    end;
    (dags, !dirty)
  end

let update ?ws ?active g ~weights ~prev ~changes =
  let dags, dirty = update_rows ?ws ?active g ~weights ~prev ~changes in
  (dags, List.map (fun d -> d.dst) dirty)
