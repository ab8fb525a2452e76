let to_string sets =
  if Array.length sets = 0 then invalid_arg "Weights_io.to_string: no vectors";
  let m = Array.length sets.(0) in
  Array.iter
    (fun w ->
      if Array.length w <> m then
        invalid_arg "Weights_io.to_string: length mismatch")
    sets;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "arcs %d topologies %d\n" m (Array.length sets));
  for arc = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "w %d" arc);
    Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf " %d" w.(arc))) sets;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_string ?arcs s =
  let lines = String.split_on_char '\n' s in
  let header = ref None in
  let rows = Hashtbl.create 64 in
  let error = ref None in
  List.iteri
    (fun lineno line ->
      if !error = None then begin
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then begin
          let parts = List.filter (( <> ) "") (String.split_on_char ' ' line) in
          match parts with
          | [ "arcs"; m; "topologies"; t ] -> (
              match (int_of_string_opt m, int_of_string_opt t) with
              | Some m, Some t when m > 0 && t > 0 -> (
                  match arcs with
                  | Some a when a <> m ->
                      error :=
                        Some
                          (Printf.sprintf "line %d: %d arcs, topology has %d arcs"
                             (lineno + 1) m a)
                  | _ -> header := Some (m, t))
              | _ ->
                  error := Some (Printf.sprintf "line %d: bad header" (lineno + 1)))
          | "w" :: arc :: values -> (
              match (int_of_string_opt arc, List.map int_of_string_opt values) with
              | Some arc, values when List.for_all Option.is_some values -> (
                  let values = List.map Option.get values in
                  if Hashtbl.mem rows arc then
                    error :=
                      Some (Printf.sprintf "line %d: duplicate arc %d" (lineno + 1) arc)
                  else
                    (* Range-check here, where the offending line is
                       known — a vector accepted by the parser must be
                       directly usable as a search starting point. *)
                    match
                      List.find_opt
                        (fun v -> v < Weights.min_weight || v > Weights.max_weight)
                        values
                    with
                    | Some v ->
                        error :=
                          Some
                            (Printf.sprintf
                               "line %d: weight %d out of range [%d, %d]"
                               (lineno + 1) v Weights.min_weight
                               Weights.max_weight)
                    | None -> Hashtbl.add rows arc values)
              | _ -> error := Some (Printf.sprintf "line %d: bad weights" (lineno + 1)))
          | _ ->
              error := Some (Printf.sprintf "line %d: unknown directive" (lineno + 1))
        end
      end)
    lines;
  match (!error, !header) with
  | Some e, _ -> Error e
  | None, None -> Error "missing header"
  | None, Some (m, t) ->
      if Hashtbl.length rows <> m then
        Error
          (Printf.sprintf "expected %d arcs, found %d" m (Hashtbl.length rows))
      else begin
        let sets = Array.make_matrix t m 0 in
        let bad = ref None in
        Hashtbl.iter
          (fun arc values ->
            if arc < 0 || arc >= m then bad := Some (Printf.sprintf "arc %d out of range" arc)
            else if List.length values <> t then
              bad := Some (Printf.sprintf "arc %d: expected %d weights" arc t)
            else
              List.iteri (fun topo v -> sets.(topo).(arc) <- v) values)
          rows;
        match !bad with Some e -> Error e | None -> Ok sets
      end

let save sets path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sets))

let load ?arcs path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string ?arcs s
