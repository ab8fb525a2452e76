(* Real-ISP-scale topology presets: transit–stub and power-law
   instances at nominal 1k / 5k / 10k nodes with tiered capacities
   (overprovisioned core/hub mesh vs. access links), the benchmark
   tier the CSR graph core and arena-based evaluation are sized for.
   Everything is seed-deterministic through the caller's Prng. *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph

type spec =
  | Ts of Transit_stub.params
  | Pl of { p : Power_law.params; hub_capacity : float; hub_degree : int }

type preset = {
  name : string;
  spec : spec;
  pops : int;  (* suggested PoP count for demand generation *)
}

(* Capacities in Mbps: 40G core / hub links, 4–10G access. *)
let ts p ~transit ~stubs_per_transit ~stub_size =
  Ts
    {
      Transit_stub.transit;
      stubs_per_transit;
      stub_size;
      core_capacity = 40_000.;
      edge_capacity = 4_000.;
      delay_range = (0.5, 10.);
    }
  |> fun spec -> { name = p; spec; pops = 0 }

let pl name ~nodes ~m0 ~m ~pops =
  {
    name;
    spec =
      Pl
        {
          p =
            {
              Power_law.nodes;
              m0;
              m;
              capacity = 10_000.;
              delay_range = (0.5, 10.);
            };
          hub_capacity = 40_000.;
          hub_degree = 40;
        };
    pops;
  }

let presets =
  [|
    { (ts "ts-1k" ~transit:10 ~stubs_per_transit:3 ~stub_size:33) with pops = 30 };
    { (ts "ts-5k" ~transit:20 ~stubs_per_transit:5 ~stub_size:50) with pops = 60 };
    { (ts "ts-10k" ~transit:25 ~stubs_per_transit:8 ~stub_size:50) with
      pops = 100 };
    pl "pl-1k" ~nodes:1_000 ~m0:10 ~m:4 ~pops:30;
    pl "pl-5k" ~nodes:5_000 ~m0:10 ~m:4 ~pops:60;
    pl "pl-10k" ~nodes:10_000 ~m0:12 ~m:5 ~pops:100;
  |]

let names () = Array.to_list (Array.map (fun p -> p.name) presets)

let find name = Array.find_opt (fun p -> p.name = name) presets

let resolve wanted =
  List.map
    (fun name ->
      match find name with
      | Some p -> p
      | None ->
          invalid_arg
            (Printf.sprintf "unknown large preset: %s (expected one of: %s)"
               name
               (String.concat ", " (names ()))))
    wanted

let node_count p =
  match p.spec with
  | Ts t -> Transit_stub.node_count t
  | Pl { p; _ } -> p.Power_law.nodes

let generate rng p =
  match p.spec with
  | Ts t -> Transit_stub.generate rng t
  | Pl { p; hub_capacity; hub_degree } ->
      Power_law.generate_ba ~hub_capacity ~hub_degree rng p

(* Demand endpoints: the highest-degree nodes are the natural PoPs —
   transit routers in a transit–stub instance, hubs in a power-law
   one. *)
let pop_nodes g p = Power_law.top_degree_nodes g p.pops
