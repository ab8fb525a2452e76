(** Real-ISP-scale topology presets (nominal 1k / 5k / 10k nodes).

    Transit–stub presets keep the paper's hierarchical structure at
    scale (full-mesh 40G core, ringed 4G access stubs); power-law
    presets use the O(links) Barabási–Albert sampler with a 40G
    hub-mesh capacity tier.  Together with {!pop_nodes} +
    {!Dtr_traffic.Gravity} PoP demands they form the large benchmark
    tier. *)

type spec =
  | Ts of Transit_stub.params
  | Pl of { p : Power_law.params; hub_capacity : float; hub_degree : int }

type preset = {
  name : string;  (** e.g. ["ts-1k"], ["pl-10k"] *)
  spec : spec;
  pops : int;  (** suggested PoP count for demand generation *)
}

val presets : preset array
(** [ts-1k ts-5k ts-10k pl-1k pl-5k pl-10k]. *)

val names : unit -> string list

val find : string -> preset option

val resolve : string list -> preset list
(** Every name's preset, in order — resolved before anything runs, so a
    typo fails at once instead of after the presets before it.
    @raise Invalid_argument naming the first unknown name and listing
    the valid ones. *)

val node_count : preset -> int
(** Exact node count the preset generates (e.g. 10025 for ["ts-10k"]:
    the transit–stub construction quantizes to
    [transit * (1 + stubs_per_transit * stub_size)]). *)

val generate : Dtr_util.Prng.t -> preset -> Dtr_graph.Graph.t

val pop_nodes : Dtr_graph.Graph.t -> preset -> int array
(** The preset's [pops] highest-degree nodes (ties by id): demand
    endpoints for a PoP-level gravity matrix. *)
