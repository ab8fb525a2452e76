(* Unit and property tests for Dtr_util: Prng, Dist, Stats, Pqueue,
   Table. *)

module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist
module Stats = Dtr_util.Stats
module Pqueue = Dtr_util.Pqueue
module Bucket_queue = Dtr_util.Bucket_queue
module Vhash = Dtr_util.Vhash
module Vmemo = Dtr_util.Vmemo
module Table = Dtr_util.Table

let check_float = Alcotest.(check (float 1e-9))

let checkf msg expected actual = check_float msg expected actual

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_prng_int_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_bad_bound () =
  let g = Prng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_incl () =
  let g = Prng.create 6 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Prng.int_incl g 3 7 in
    Alcotest.(check bool) "3 <= v <= 7" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0. && v < 2.5)
  done

let test_prng_uniform_mean () =
  let g = Prng.create 8 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform g 1. 4.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean close to 2.5" true (Float.abs (mean -. 2.5) < 0.02)

let test_prng_split_independent () =
  let g = Prng.create 9 in
  let a = Prng.split g in
  let b = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_prng_shuffle_permutation () =
  let g = Prng.create 10 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_prng_sample_without_replacement () =
  let g = Prng.create 11 in
  let s = Prng.sample_without_replacement g 10 30 in
  Alcotest.(check int) "ten elements" 10 (Array.length s);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in range" true (v >= 0 && v < 30);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    s

let test_prng_sample_full () =
  let g = Prng.create 12 in
  let s = Prng.sample_without_replacement g 5 5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "full sample is permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_prng_sample_rejects () =
  let g = Prng.create 13 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Prng.sample_without_replacement") (fun () ->
      ignore (Prng.sample_without_replacement g 6 5))

let test_prng_choose () =
  let g = Prng.create 14 in
  for _ = 1 to 100 do
    let v = Prng.choose g [| 3; 5; 9 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 3; 5; 9 ])
  done

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_heavy_tail_support () =
  let g = Prng.create 20 in
  let d = Dist.heavy_tail ~tau:1.5 ~n:10 in
  for _ = 1 to 10_000 do
    let k = Dist.heavy_tail_sample d g in
    Alcotest.(check bool) "1 <= k <= 10" true (k >= 1 && k <= 10)
  done

let test_heavy_tail_bias () =
  (* With tau = 1.5, rank 1 must be sampled far more often than rank n. *)
  let g = Prng.create 21 in
  let d = Dist.heavy_tail ~tau:1.5 ~n:20 in
  let counts = Array.make 21 0 in
  for _ = 1 to 20_000 do
    let k = Dist.heavy_tail_sample d g in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 dominates rank 20" true
    (counts.(1) > 5 * counts.(20))

let test_heavy_tail_uniform_when_tau_zero () =
  let d = Dist.heavy_tail ~tau:0. ~n:4 in
  for k = 1 to 4 do
    checkf "uniform mass" 0.25 (Dist.heavy_tail_mass d k)
  done

let test_heavy_tail_mass_sums_to_one () =
  let d = Dist.heavy_tail ~tau:1.5 ~n:50 in
  let total = ref 0. in
  for k = 1 to 50 do
    total := !total +. Dist.heavy_tail_mass d k
  done;
  check_float "sums to 1" 1.0 !total

let test_heavy_tail_rejects () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Dist.heavy_tail: n must be positive") (fun () ->
      ignore (Dist.heavy_tail ~tau:1.0 ~n:0));
  Alcotest.check_raises "tau < 0"
    (Invalid_argument "Dist.heavy_tail: tau must be non-negative") (fun () ->
      ignore (Dist.heavy_tail ~tau:(-1.) ~n:3))

let test_heavy_tail_mass_rejects_rank () =
  let d = Dist.heavy_tail ~tau:1.0 ~n:3 in
  Alcotest.check_raises "rank 0"
    (Invalid_argument "Dist.heavy_tail_mass: rank out of range") (fun () ->
      ignore (Dist.heavy_tail_mass d 0));
  Alcotest.check_raises "rank 4"
    (Invalid_argument "Dist.heavy_tail_mass: rank out of range") (fun () ->
      ignore (Dist.heavy_tail_mass d 4))

let test_weighted_choice_respects_zeros () =
  let g = Prng.create 22 in
  for _ = 1 to 1000 do
    let i = Dist.weighted_choice g [| 0.; 1.; 0.; 2.; 0. |] in
    Alcotest.(check bool) "never picks zero weight" true (i = 1 || i = 3)
  done

let test_weighted_choice_proportional () =
  let g = Prng.create 23 in
  let counts = [| 0; 0 |] in
  for _ = 1 to 30_000 do
    let i = Dist.weighted_choice g [| 1.; 3. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac = float_of_int counts.(1) /. 30_000. in
  Alcotest.(check bool) "3:1 ratio" true (Float.abs (frac -. 0.75) < 0.02)

let test_weighted_choice_rejects () =
  let g = Prng.create 24 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Dist.weighted_choice: zero total weight") (fun () ->
      ignore (Dist.weighted_choice g [| 0.; 0. |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.weighted_choice: negative or NaN weight")
    (fun () -> ignore (Dist.weighted_choice g [| 1.; -1. |]))

let test_exponential_mean () =
  let g = Prng.create 25 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Dist.exponential g ~rate:2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_exponential_positive () =
  let g = Prng.create 26 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Dist.exponential g ~rate:1.0 >= 0.)
  done

let test_three_level_bands () =
  let g = Prng.create 27 in
  let levels = [| (0.6, 10., 50.); (0.35, 80., 130.); (0.05, 150., 200.) |] in
  let in_band v (_, lo, hi) = v >= lo && v <= hi in
  for _ = 1 to 5_000 do
    let v = Dist.three_level g levels in
    Alcotest.(check bool) "in one of the bands" true
      (Array.exists (in_band v) levels)
  done

let test_three_level_proportions () =
  let g = Prng.create 28 in
  let levels = [| (0.6, 0., 1.); (0.4, 10., 11.) |] in
  let low = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Dist.three_level g levels < 5. then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool) "60/40 split" true (Float.abs (frac -. 0.6) < 0.02)

let test_three_level_rejects_bad_probs () =
  let g = Prng.create 29 in
  Alcotest.check_raises "probs sum to 0.9"
    (Invalid_argument "Dist.three_level: probabilities must sum to 1")
    (fun () -> ignore (Dist.three_level g [| (0.5, 0., 1.); (0.4, 2., 3.) |]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  checkf "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  checkf "empty mean" 0. (Stats.mean [||])

let test_stats_variance () =
  checkf "variance" 1.25 (Stats.variance [| 1.; 2.; 3.; 4. |]);
  checkf "constant variance" 0. (Stats.variance [| 5.; 5.; 5. |])

let test_stats_stddev () = checkf "stddev" 2. (Stats.stddev [| 2.; 6. |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 0. |] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty array")
    (fun () -> ignore (Stats.min_max [||]))

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "p0" 1. (Stats.percentile a 0.);
  checkf "p50" 3. (Stats.percentile a 50.);
  checkf "p100" 5. (Stats.percentile a 100.);
  checkf "p25 interpolates" 2. (Stats.percentile a 25.)

let test_stats_percentile_total_order () =
  (* Float.compare (not polymorphic compare) must drive the sort:
     negative zeros and denormals around zero order correctly, and a
     NaN sample is rejected up front instead of silently corrupting the
     sort order. *)
  checkf "negative zero orders below positives" (-0.)
    (Stats.percentile [| 1.; -0.; 2. |] 0.);
  checkf "p100 with negatives" 3. (Stats.percentile [| -5.; 3.; -1. |] 100.);
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.percentile [| 1.; Float.nan; 2. |] 50.))

let test_stats_median_even () =
  checkf "median of even count" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_stats_histogram () =
  let h = Stats.histogram ~lo:0. ~hi:1. ~bins:4 [| 0.1; 0.3; 0.3; 0.9; 1.5 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 1 |] h.Stats.counts;
  Alcotest.(check int) "overflow" 1 h.Stats.overflow;
  checkf "bin 0 center" 0.125 (Stats.histogram_bin_center h 0)

let test_stats_histogram_clamps_low () =
  let h = Stats.histogram ~lo:1. ~hi:2. ~bins:2 [| 0.5 |] in
  Alcotest.(check (array int)) "clamped into first bin" [| 1; 0 |] h.Stats.counts

let test_stats_gini_even () =
  checkf "even spread" 0. (Stats.gini [| 1.; 1.; 1.; 1. |]);
  checkf "empty" 0. (Stats.gini [||]);
  checkf "all zero" 0. (Stats.gini [| 0.; 0. |])

let test_stats_gini_concentrated () =
  (* All mass on one of n elements: G = (n-1)/n. *)
  checkf "one of four" 0.75 (Stats.gini [| 0.; 0.; 0.; 8. |]);
  Alcotest.(check bool) "monotone in skew" true
    (Stats.gini [| 1.; 9. |] > Stats.gini [| 4.; 6. |])

let test_stats_gini_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Stats.gini: negative value")
    (fun () -> ignore (Stats.gini [| 1.; -1. |]))

let test_stats_weighted_mean () =
  checkf "weighted" 3.
    (Stats.weighted_mean ~values:[| 1.; 5. |] ~weights:[| 1.; 1. |]);
  checkf "weighted skewed" 5.
    (Stats.weighted_mean ~values:[| 1.; 5. |] ~weights:[| 0.; 2. |])

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile lies between min and max" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
              (float_range 0. 100.))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Stats.percentile a p in
      let lo, hi = Stats.min_max a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_histogram_conserves_samples =
  QCheck.Test.make ~name:"histogram counts + overflow = samples" ~count:300
    QCheck.(list (float_range (-1.) 3.))
    (fun l ->
      let a = Array.of_list l in
      let h = Stats.histogram ~lo:0. ~hi:2. ~bins:7 a in
      Array.fold_left ( + ) 0 h.Stats.counts + h.Stats.overflow
      = Array.length a)

let prop_int_incl_in_bounds =
  QCheck.Test.make ~name:"int_incl stays within bounds" ~count:300
    QCheck.(triple (int_range 0 10_000) (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let g = Prng.create seed in
      let hi = lo + span in
      let v = Prng.int_incl g lo hi in
      v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_orders () =
  let q = Pqueue.create () in
  Pqueue.add q 3. "c";
  Pqueue.add q 1. "a";
  Pqueue.add q 2. "b";
  Alcotest.(check (option (pair (float 0.) string))) "a first" (Some (1., "a"))
    (Pqueue.pop_min q);
  Alcotest.(check (option (pair (float 0.) string))) "b second" (Some (2., "b"))
    (Pqueue.pop_min q);
  Alcotest.(check (option (pair (float 0.) string))) "c third" (Some (3., "c"))
    (Pqueue.pop_min q);
  Alcotest.(check (option (pair (float 0.) string))) "empty" None
    (Pqueue.pop_min q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.add q 1. "first";
  Pqueue.add q 1. "second";
  Pqueue.add q 1. "third";
  let pop () = match Pqueue.pop_min q with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "fifo 1" "first" (pop ());
  Alcotest.(check string) "fifo 2" "second" (pop ());
  Alcotest.(check string) "fifo 3" "third" (pop ())

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.add q 5. 50;
  Alcotest.(check (option (pair (float 0.) int))) "peek" (Some (5., 50))
    (Pqueue.peek_min q);
  Alcotest.(check int) "length unchanged" 1 (Pqueue.length q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q 1. 1;
  Pqueue.add q 2. 2;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.add q k i) keys;
      let rec drain acc =
        match Pqueue.pop_min q with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let drained = drain [] in
      drained = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Bucket_queue *)

let test_bucket_queue_orders () =
  let q = Bucket_queue.create () in
  Bucket_queue.add q ~prio:3 30;
  Bucket_queue.add q ~prio:1 10;
  Bucket_queue.add q ~prio:2 20;
  let popt = Alcotest.(option (pair int int)) in
  Alcotest.check popt "prio 1 first" (Some (1, 10)) (Bucket_queue.pop_min q);
  Alcotest.check popt "prio 2 second" (Some (2, 20)) (Bucket_queue.pop_min q);
  Alcotest.check popt "prio 3 third" (Some (3, 30)) (Bucket_queue.pop_min q);
  Alcotest.check popt "empty" None (Bucket_queue.pop_min q)

let test_bucket_queue_clear_reuse () =
  let q = Bucket_queue.create ~capacity:4 () in
  Bucket_queue.add q ~prio:100 1;
  (* forces growth past the initial capacity *)
  Bucket_queue.add q ~prio:2 2;
  Bucket_queue.clear q;
  Alcotest.(check bool) "cleared" true (Bucket_queue.is_empty q);
  Alcotest.(check int) "length zero" 0 (Bucket_queue.length q);
  Bucket_queue.add q ~prio:5 50;
  Alcotest.(check (option (pair int int))) "usable after clear" (Some (5, 50))
    (Bucket_queue.pop_min q)

let test_bucket_queue_rewinds () =
  (* Adding below the cursor after pops must rewind, not skip. *)
  let q = Bucket_queue.create () in
  Bucket_queue.add q ~prio:10 1;
  ignore (Bucket_queue.pop_min q);
  Bucket_queue.add q ~prio:3 2;
  Alcotest.(check (option (pair int int))) "low prio found" (Some (3, 2))
    (Bucket_queue.pop_min q)

let test_bucket_queue_pop_value () =
  (* The allocation-free pop agrees with pop_min, starting high. *)
  let q = Bucket_queue.create ~capacity:4 () in
  List.iter (fun (p, v) -> Bucket_queue.add q ~prio:p v) [ (900, 1); (700, 2); (900, 3) ];
  let v = Bucket_queue.pop_min_value q in
  Alcotest.(check (pair int int)) "least first" (700, 2) (Bucket_queue.last_prio q, v);
  Bucket_queue.add q ~prio:5 4;
  let v = Bucket_queue.pop_min_value q in
  Alcotest.(check (pair int int)) "rewinds" (5, 4) (Bucket_queue.last_prio q, v);
  let a = Bucket_queue.pop_min_value q in
  let b = Bucket_queue.pop_min_value q in
  Alcotest.(check (list int)) "ties drain" [ 1; 3 ] (List.sort compare [ a; b ]);
  Alcotest.(check int) "tie priority" 900 (Bucket_queue.last_prio q);
  Alcotest.check_raises "empty"
    (Invalid_argument "Bucket_queue.pop_min_value: empty queue") (fun () ->
      ignore (Bucket_queue.pop_min_value q))

let test_bucket_queue_rejects_negative () =
  let q = Bucket_queue.create () in
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Bucket_queue.add: negative priority") (fun () ->
      Bucket_queue.add q ~prio:(-1) 0)

let prop_bucket_queue_sorts =
  QCheck.Test.make ~name:"bucket queue drains in priority order" ~count:200
    QCheck.(list (int_bound 500))
    (fun prios ->
      let q = Bucket_queue.create () in
      List.iteri (fun i p -> Bucket_queue.add q ~prio:p i) prios;
      let rec drain acc =
        match Bucket_queue.pop_min q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Vhash / Vmemo *)

let test_vhash_shift_consistency () =
  let rng = Prng.create 11 in
  for _ = 1 to 50 do
    let n = 1 + Prng.int rng 20 in
    let w = Array.init n (fun _ -> 1 + Prng.int rng 30) in
    let cls = Prng.int rng 2 in
    let h = Vhash.vector ~cls w in
    let arc = Prng.int rng n in
    let before = w.(arc) in
    let after = 1 + Prng.int rng 30 in
    let w' = Array.copy w in
    w'.(arc) <- after;
    Alcotest.(check int) "shift = rehash" (Vhash.vector ~cls w')
      (Vhash.shift h ~cls ~arc ~before ~after)
  done

let test_vhash_class_sensitivity () =
  let w = [| 3; 7; 15 |] in
  Alcotest.(check bool) "classes hash differently" true
    (Vhash.vector ~cls:0 w <> Vhash.vector ~cls:1 w)

let test_vhash_rejects_negative () =
  Alcotest.check_raises "negative cell input"
    (Invalid_argument "Vhash.cell: negative coordinate") (fun () ->
      ignore (Vhash.cell ~cls:0 ~arc:(-1) ~value:1))

let test_vmemo_find_add () =
  let m = Vmemo.create () in
  Alcotest.(check (option int)) "miss" None (Vmemo.find m 42);
  Vmemo.add m 42 1000;
  Alcotest.(check (option int)) "hit" (Some 1000) (Vmemo.find m 42);
  Vmemo.add m 42 2000;
  Alcotest.(check (option int)) "overwrite" (Some 2000) (Vmemo.find m 42);
  Alcotest.(check int) "hits" 2 (Vmemo.hits m);
  Alcotest.(check int) "misses" 1 (Vmemo.misses m);
  Alcotest.(check int) "size" 1 (Vmemo.size m)

let test_vmemo_growth () =
  let m = Vmemo.create ~capacity:16 () in
  for k = 0 to 999 do
    Vmemo.add m (Vhash.cell ~cls:0 ~arc:k ~value:1) k
  done;
  Alcotest.(check int) "all retained" 1000 (Vmemo.size m);
  let ok = ref true in
  for k = 0 to 999 do
    if Vmemo.find m (Vhash.cell ~cls:0 ~arc:k ~value:1) <> Some k then
      ok := false
  done;
  Alcotest.(check bool) "all found after growth" true !ok

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_rows_and_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_float_row t [ 3.; 4.5 ];
  Alcotest.(check int) "two rows" 2 (List.length (Table.rows t));
  let s = Table.to_string t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 1 = "T")

let test_table_arity_check () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv_escaping () =
  let t = Table.create ~title:"T" ~columns:[ "x" ] in
  Table.add_row t [ "has,comma" ];
  Table.add_row t [ "has\"quote" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "comma quoted" "\"has,comma\"" (List.nth lines 1);
  Alcotest.(check string) "quote doubled" "\"has\"\"quote\"" (List.nth lines 2)

let test_table_float_cell () =
  Alcotest.(check string) "integral" "42" (Table.float_cell 42.);
  Alcotest.(check string) "fractional" "3.142" (Table.float_cell 3.14159)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick
            test_prng_int_rejects_bad_bound;
          Alcotest.test_case "int_incl" `Quick test_prng_int_incl;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "full sample" `Quick test_prng_sample_full;
          Alcotest.test_case "sample rejects k>n" `Quick test_prng_sample_rejects;
          Alcotest.test_case "choose membership" `Quick test_prng_choose;
        ] );
      ( "dist",
        [
          Alcotest.test_case "heavy tail support" `Quick test_heavy_tail_support;
          Alcotest.test_case "heavy tail bias" `Quick test_heavy_tail_bias;
          Alcotest.test_case "heavy tail uniform at tau=0" `Quick
            test_heavy_tail_uniform_when_tau_zero;
          Alcotest.test_case "heavy tail mass sums to 1" `Quick
            test_heavy_tail_mass_sums_to_one;
          Alcotest.test_case "heavy tail rejects" `Quick test_heavy_tail_rejects;
          Alcotest.test_case "heavy tail mass rank bounds" `Quick
            test_heavy_tail_mass_rejects_rank;
          Alcotest.test_case "weighted choice zeros" `Quick
            test_weighted_choice_respects_zeros;
          Alcotest.test_case "weighted choice proportional" `Quick
            test_weighted_choice_proportional;
          Alcotest.test_case "weighted choice rejects" `Quick
            test_weighted_choice_rejects;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick
            test_exponential_positive;
          Alcotest.test_case "three level bands" `Quick test_three_level_bands;
          Alcotest.test_case "three level proportions" `Quick
            test_three_level_proportions;
          Alcotest.test_case "three level rejects" `Quick
            test_three_level_rejects_bad_probs;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile total order" `Quick
            test_stats_percentile_total_order;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram clamps low" `Quick
            test_stats_histogram_clamps_low;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
          Alcotest.test_case "gini even" `Quick test_stats_gini_even;
          Alcotest.test_case "gini concentrated" `Quick
            test_stats_gini_concentrated;
          Alcotest.test_case "gini rejects negative" `Quick
            test_stats_gini_rejects_negative;
          qc prop_percentile_within_range;
          qc prop_histogram_conserves_samples;
          qc prop_int_incl_in_bounds;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "orders" `Quick test_pqueue_orders;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          qc prop_pqueue_sorts;
        ] );
      ( "bucket_queue",
        [
          Alcotest.test_case "orders" `Quick test_bucket_queue_orders;
          Alcotest.test_case "clear and reuse" `Quick
            test_bucket_queue_clear_reuse;
          Alcotest.test_case "rewinds below cursor" `Quick
            test_bucket_queue_rewinds;
          Alcotest.test_case "allocation-free pop" `Quick
            test_bucket_queue_pop_value;
          Alcotest.test_case "rejects negative priority" `Quick
            test_bucket_queue_rejects_negative;
          qc prop_bucket_queue_sorts;
        ] );
      ( "vhash",
        [
          Alcotest.test_case "shift consistency" `Quick
            test_vhash_shift_consistency;
          Alcotest.test_case "class sensitivity" `Quick
            test_vhash_class_sensitivity;
          Alcotest.test_case "rejects negative" `Quick test_vhash_rejects_negative;
        ] );
      ( "vmemo",
        [
          Alcotest.test_case "find and add" `Quick test_vmemo_find_add;
          Alcotest.test_case "growth" `Quick test_vmemo_growth;
        ] );
      ( "table",
        [
          Alcotest.test_case "rows and render" `Quick test_table_rows_and_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "csv escaping" `Quick test_table_csv_escaping;
          Alcotest.test_case "float cell" `Quick test_table_float_cell;
        ] );
    ]
