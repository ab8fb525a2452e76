(** Extension experiment (not in the paper): three priority classes on
    three routing topologies (gold / silver / bronze on the ISP
    backbone), single shared topology vs one topology per class.
    Expected: the highest class is unaffected, every lower class
    improves, the lowest by the largest factor. *)

val problem :
  ?seed:int -> ?target_util:float -> unit -> Dtr_core.Mtr_search.problem
(** The experiment's instance: the ISP backbone with gold / silver /
    bronze matrices drawn from [seed] (default 83) and scaled so that
    shortest-path routing on uniform weights reaches [target_util]
    (default 0.6) average utilization. *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?target_util:float ->
  unit ->
  Dtr_util.Table.t
