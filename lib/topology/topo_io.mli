(** Plain-text serialization of graphs.

    Format (line oriented, [#] comments allowed):
    {v
    nodes <n>
    arc <src> <dst> <capacity> <delay>
    ...
    v}

    Fields are separated by any run of blanks (spaces or tabs); CRLF
    line endings are accepted. *)

val to_string : Dtr_graph.Graph.t -> string

val of_string : string -> (Dtr_graph.Graph.t, string) result
(** Parse errors are returned as [Error message] with a line number.
    Arc values are validated at parse time: NaN or infinite capacity /
    delay, non-positive capacity, and negative delay are rejected here
    (with the offending line number) instead of surfacing as a NaN
    objective or an exception deep inside a search.  So are an arc
    endpoint outside [[0, n)], a self-loop (at the arc's line, also
    for arcs listed before [nodes]) and a second [nodes] directive. *)

val save : Dtr_graph.Graph.t -> string -> unit
(** Write to a file path.  @raise Sys_error on I/O failure. *)

val load : string -> (Dtr_graph.Graph.t, string) result
