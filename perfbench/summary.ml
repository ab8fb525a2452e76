(* Sample statistics with the benchmark's honesty rules: every figure
   carries its sample count, and a percentile is reported only when at
   least ten samples lie beyond it. *)

module Stats = Dtr_util.Stats

type t = { n : int; mean : float; samples : float array }

let of_list xs =
  let samples = Array.of_list xs in
  { n = Array.length samples; mean = Stats.mean samples; samples }

let median t = Stats.median t.samples

(* Samples needed before the [p]-th percentile has ten beyond it. *)
let needed p = int_of_float (Float.ceil (1000. /. (100. -. p)))

let percentile t p =
  if t.n < needed p then
    invalid_arg
      (Printf.sprintf "Summary.percentile: p%g needs %d samples, have %d" p
         (needed p) t.n);
  Stats.percentile t.samples p

(* [num / den], 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den
