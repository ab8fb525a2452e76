module Lexico = Dtr_cost.Lexico

type kind =
  | Str_scan
  | Find_h
  | Find_l
  | Mtr_pass
  | Anneal_step
  | Probe
  | Diversify
  | Phase_done
  | Restart_done
  | Robust_sweep

let kind_name = function
  | Str_scan -> "str_scan"
  | Find_h -> "find_h"
  | Find_l -> "find_l"
  | Mtr_pass -> "mtr_pass"
  | Anneal_step -> "anneal_step"
  | Probe -> "probe"
  | Diversify -> "diversify"
  | Phase_done -> "phase_done"
  | Restart_done -> "restart_done"
  | Robust_sweep -> "robust_sweep"

let kind_of_name = function
  | "str_scan" -> Some Str_scan
  | "find_h" -> Some Find_h
  | "find_l" -> Some Find_l
  | "mtr_pass" -> Some Mtr_pass
  | "anneal_step" -> Some Anneal_step
  | "probe" -> Some Probe
  | "diversify" -> Some Diversify
  | "phase_done" -> Some Phase_done
  | "restart_done" -> Some Restart_done
  | "robust_sweep" -> Some Robust_sweep
  | _ -> None

type event = {
  seq : int;
  restart : int;
  kind : kind;
  iteration : int;
  detail : int;
  accepted : bool;
  before : float array;
  after : float array;
  best : float array;
  evaluations : int;
  full_evals : int;
  delta_evals : int;
  memo_hits : int;
  memo_misses : int;
  value : float;
  time_us : float;
}

(* A bounded ring degenerates to a growable array until [cap] events
   are held, then overwrites the oldest slot. *)
type ring_state = {
  mutable buf : event option array;
  mutable len : int;  (* events held *)
  mutable head : int;  (* index of the oldest event once saturated *)
  cap : int;
}

type sink =
  | Null
  | Ring of ring_state
  | Jsonl of out_channel
  | Tee of t * t
  | Sample of sample_state

(* Counter-based probe decimation: the counter advances once per Probe
   event offered, whether or not the event is kept, so which probes
   survive is a pure function of the probe stream (jobs-invariant —
   probes are already re-emitted in candidate order on the calling
   domain). *)
and sample_state = { every : int; inner : t; mutable seen : int }

and t = {
  sink : sink;
  mutable seq : int;
  mutable count : int;
  mutable last_us : float;
  t0 : float;
  stamps : bool;
}

let make ?(timestamps = true) sink =
  {
    sink;
    seq = 0;
    count = 0;
    last_us = 0.;
    t0 = Unix.gettimeofday ();
    stamps = timestamps;
  }

let disabled = make Null

let ring ?(capacity = max_int) ?timestamps () =
  if capacity < 1 then invalid_arg "Trace.ring: capacity must be positive";
  make ?timestamps
    (Ring { buf = Array.make (min capacity 256) None; len = 0; head = 0; cap = capacity })

let jsonl ?timestamps oc = make ?timestamps (Jsonl oc)

let tee a b = make (Tee (a, b))

let rec enabled t =
  match t.sink with
  | Null -> false
  | Ring _ | Jsonl _ -> true
  | Tee (a, b) -> enabled a || enabled b
  | Sample s -> enabled s.inner

let sample n t =
  if n < 1 then invalid_arg "Trace.sample: period must be positive";
  if n = 1 || not (enabled t) then t
  else make (Sample { every = n; inner = t; seen = 0 })

(* Forced-monotone elapsed time: wall clocks can step backwards (NTP),
   and the schema promises a monotone timing field. *)
let now t =
  let us = (Unix.gettimeofday () -. t.t0) *. 1e6 in
  let us = if us > t.last_us then us else t.last_us in
  t.last_us <- us;
  us

let float_str x = Printf.sprintf "%.17g" x

let array_str a =
  let b = Buffer.create 32 in
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (float_str x))
    a;
  Buffer.add_char b ']';
  Buffer.contents b

let to_json (e : event) =
  Printf.sprintf
    "{\"seq\":%d,\"restart\":%d,\"kind\":%S,\"iter\":%d,\"detail\":%d,\"accepted\":%b,\"before\":%s,\"after\":%s,\"best\":%s,\"evals\":%d,\"full\":%d,\"delta\":%d,\"memo_hits\":%d,\"memo_misses\":%d,\"value\":%s,\"t_us\":%s}"
    e.seq e.restart (kind_name e.kind) e.iteration e.detail e.accepted
    (array_str e.before) (array_str e.after) (array_str e.best) e.evaluations
    e.full_evals e.delta_evals e.memo_hits e.memo_misses (float_str e.value)
    (float_str e.time_us)

exception Bad_field of string

let of_json line =
  let module J = Dtr_util.Json in
  match J.parse line with
  | Error e -> Error e
  | Ok j -> (
      let get name conv =
        match Option.bind (J.member name j) conv with
        | Some x -> x
        | None -> raise (Bad_field name)
      in
      let farr name =
        get name (fun v ->
            match J.to_list v with
            | None -> None
            | Some l ->
                let rec go acc = function
                  | [] -> Some (Array.of_list (List.rev acc))
                  | x :: tl -> (
                      match J.to_float x with
                      | Some f -> go (f :: acc) tl
                      | None -> None)
                in
                go [] l)
      in
      try
        Ok
          {
            seq = get "seq" J.to_int;
            restart = get "restart" J.to_int;
            kind =
              get "kind" (fun v -> Option.bind (J.to_string v) kind_of_name);
            iteration = get "iter" J.to_int;
            detail = get "detail" J.to_int;
            accepted = get "accepted" J.to_bool;
            before = farr "before";
            after = farr "after";
            best = farr "best";
            evaluations = get "evals" J.to_int;
            full_evals = get "full" J.to_int;
            delta_evals = get "delta" J.to_int;
            memo_hits = get "memo_hits" J.to_int;
            memo_misses = get "memo_misses" J.to_int;
            value = get "value" J.to_float;
            time_us = get "t_us" J.to_float;
          }
      with Bad_field name ->
        Error (Printf.sprintf "Trace.of_json: bad or missing field %S" name))

let ring_push r (e : event) =
  if r.len < r.cap then begin
    if r.len = Array.length r.buf then begin
      (* Grow (still under the capacity bound). *)
      let buf = Array.make (min r.cap (2 * r.len)) None in
      Array.blit r.buf 0 buf 0 r.len;
      r.buf <- buf
    end;
    r.buf.(r.len) <- Some e;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.head) <- Some e;
    r.head <- (r.head + 1) mod r.cap
  end

(* Record a fully-built event, assigning this sink's [seq] but keeping
   the caller's [time_us] (used by replay, where the worker's clock
   already stamped the event). *)
let rec record t (e : event) =
  match t.sink with
  | Null -> ()
  | Ring r ->
      let e =
        { e with seq = t.seq; time_us = (if t.stamps then e.time_us else 0.) }
      in
      t.seq <- t.seq + 1;
      t.count <- t.count + 1;
      ring_push r e
  | Jsonl oc ->
      let e =
        { e with seq = t.seq; time_us = (if t.stamps then e.time_us else 0.) }
      in
      t.seq <- t.seq + 1;
      t.count <- t.count + 1;
      output_string oc (to_json e);
      output_char oc '\n'
  | Tee (a, b) ->
      record a e;
      record b e
  | Sample s -> (
      match e.kind with
      | Probe ->
          let keep = s.seen mod s.every = 0 in
          s.seen <- s.seen + 1;
          if keep then record s.inner e
      | _ -> record s.inner e)

let emit t ~kind ?(restart = -1) ~iteration ?(detail = -1) ?(accepted = false)
    ?(before = [||]) ?(after = [||]) ?(best = [||]) ?(evaluations = 0)
    ?(full = 0) ?(delta = 0) ?(memo_hits = 0) ?(memo_misses = 0) ?(value = 0.)
    () =
  match t.sink with
  | Null -> ()
  | _ ->
      record t
        {
          seq = 0;
          restart;
          kind;
          iteration;
          detail;
          accepted;
          before;
          after;
          best;
          evaluations;
          full_evals = full;
          delta_evals = delta;
          memo_hits;
          memo_misses;
          value;
          time_us = now t;
        }

let rec length t =
  match t.sink with Sample s -> length s.inner | _ -> t.count

let rec events t =
  match t.sink with
  | Ring r ->
      let get i =
        match r.buf.((r.head + i) mod Array.length r.buf) with
        | Some e -> e
        | None -> assert false
      in
      (* Before saturation head = 0 and the modulo is the identity. *)
      List.init r.len get
  | Sample s -> events s.inner
  | Null | Jsonl _ | Tee _ -> []

let replay t ~into ~restart =
  List.iter (fun e -> record into { e with restart }) (events t)

let pair (l : Lexico.t) = [| l.Lexico.primary; l.Lexico.secondary |]

(* Exact lexicographic order on equal-length objective vectors; the
   arrays the searches emit never contain NaN. *)
let vec_lt a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then Array.length a < Array.length b
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let segments evs =
  (* [cur] is the open segment, newest event first. *)
  let close cur acc = match cur with [] -> acc | _ -> List.rev cur :: acc in
  let rec go cur acc = function
    | [] -> List.rev (close cur acc)
    | e :: rest ->
        let cur, acc =
          match cur with
          | prev :: _ when prev.restart <> e.restart -> ([], close cur acc)
          | _ -> (cur, acc)
        in
        if e.kind = Restart_done then go [] (close (e :: cur) acc) rest
        else go (e :: cur) acc rest
  in
  go [] [] evs

let convergence evs =
  let acc = ref [] in
  let best = ref [||] in
  let base = ref 0 in
  List.iter
    (fun seg ->
      (* Each segment counts evaluations from zero; offset it by the
         budget the previous segments spent. *)
      let seg_last = ref 0 in
      List.iter
        (fun e ->
          if Array.length e.best > 0 then begin
            if e.evaluations > !seg_last then seg_last := e.evaluations;
            if Array.length !best = 0 || vec_lt e.best !best then begin
              best := e.best;
              acc := (!base + e.evaluations, e.best) :: !acc
            end
          end)
        seg;
      base := !base + !seg_last)
    (segments evs);
  List.rev !acc
