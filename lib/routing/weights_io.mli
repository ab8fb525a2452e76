(** Serialization of (dual) weight settings, so optimized weights can
    be saved, diffed and deployed.

    Format (line oriented, [#] comments allowed):
    {v
    arcs <m> topologies <t>
    w <arc-id> <w_topo0> [<w_topo1> ...]
    ...
    v}
    The header comes first, once; every arc id in [0, m) must then
    appear exactly once. *)

val to_string : int array array -> string
(** [to_string sets] serializes one or more weight vectors (all the
    same length).  @raise Invalid_argument on an empty set list or
    mismatched lengths. *)

val of_string : ?arcs:int -> string -> (int array array, string) result
(** Parses and validates: every weight must lie in
    [[Weights.min_weight, Weights.max_weight]], every arc id in
    [[0, m)] exactly once, every row carrying [t] values, and — given
    [arcs], the arc count of the topology the weights are meant for —
    [m = arcs] (a file saved on another topology is rejected at its
    header: ["line 1: 70 arcs, topology has 500 arcs"]).  Each row is
    checked against the header at its own line, and the result is
    allocated only after [m] valid rows have been read, so a bogus
    header allocates nothing.  Errors are prefixed ["line N:"] when
    attributable to one line, so a rejected file points at the
    offending row; a row before the header is ["missing header"]. *)

val save : int array array -> string -> unit
(** @raise Sys_error on I/O failure, [Invalid_argument] as
    {!to_string}. *)

val load : ?arcs:int -> string -> (int array array, string) result
(** {!of_string} of a file's contents; [Error] carries the I/O error
    when the file cannot be opened. *)
