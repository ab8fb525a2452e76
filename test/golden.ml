(* Golden files live beside the test sources.  Their path is resolved
   from the test executable's own location, never the working
   directory: dune builds a test to <root>/_build/<context>/test/, whose
   source directory is <root>/test/.  So [dune runtest] and [dune exec
   test/TEST.exe] from any directory read — and, with
   DTR_UPDATE_GOLDEN set, rewrite — the same file. *)

let source_dir () =
  let exe_dir = Filename.dirname Sys.executable_name in
  let rec up dir below =
    let parent = Filename.dirname dir in
    if parent = dir then exe_dir
    else if Filename.basename parent = "_build" then
      List.fold_left Filename.concat (Filename.dirname parent) below
    else up parent (Filename.basename dir :: below)
  in
  up exe_dir []

let check ~what name actual =
  let file = Filename.concat (source_dir ()) name in
  match Sys.getenv_opt "DTR_UPDATE_GOLDEN" with
  | Some _ ->
      Out_channel.with_open_bin file (fun oc -> output_string oc actual)
  | None ->
      Alcotest.(check string) what
        (In_channel.with_open_bin file In_channel.input_all)
        actual
