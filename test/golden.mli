(** Golden-output files of the test suites, resolved in the test
    source directory independently of the working directory. *)

val check : what:string -> string -> string -> unit
(** [check ~what name actual] asserts that [actual] equals the golden
    file [name]; with [DTR_UPDATE_GOLDEN] set it writes [actual] there
    instead. *)
