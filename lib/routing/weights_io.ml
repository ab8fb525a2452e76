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

(* One pass over the lines, the header first: every row is checked
   against it at its own line (arc index, value count, duplicates,
   weight range), so nothing is allocated from an unchecked header —
   the [t x m] result is built only once [m] rows of [t] values each
   have been read. *)
let of_string ?arcs s =
  let rows = Hashtbl.create 64 in
  let rec parse lineno header = function
    | [] -> (
        match header with
        | None -> Error "missing header"
        | Some (m, t) ->
            if Hashtbl.length rows <> m then
              Error
                (Printf.sprintf "expected %d arcs, found %d" m
                   (Hashtbl.length rows))
            else begin
              let sets = Array.make_matrix t m 0 in
              Hashtbl.iter
                (fun arc values ->
                  List.iteri (fun topo v -> sets.(topo).(arc) <- v) values)
                rows;
              Ok sets
            end)
    | line :: rest -> (
        let fail fmt =
          Printf.ksprintf
            (fun e -> Error (Printf.sprintf "line %d: %s" lineno e))
            fmt
        in
        let next header = parse (lineno + 1) header rest in
        let line = String.trim line in
        let words = List.filter (( <> ) "") (String.split_on_char ' ' line) in
        match (words, header) with
        | [], _ -> next header
        | _ when line.[0] = '#' -> next header
        | [ "arcs"; m; "topologies"; t ], None -> (
            match (int_of_string_opt m, int_of_string_opt t) with
            | Some m, Some t when m > 0 && t > 0 -> (
                match arcs with
                | Some a when a <> m -> fail "%d arcs, topology has %d arcs" m a
                | _ -> next (Some (m, t)))
            | _ -> fail "bad header")
        | [ "arcs"; _; "topologies"; _ ], Some _ -> fail "duplicate header"
        | "w" :: _, None -> Error "missing header"
        | "w" :: arc :: values, Some (m, t) -> (
            match (int_of_string_opt arc, List.map int_of_string_opt values) with
            | Some arc, values when List.for_all Option.is_some values -> (
                let values = List.map Option.get values in
                if arc < 0 || arc >= m then fail "arc %d out of range" arc
                else if List.length values <> t then
                  fail "arc %d: expected %d weights" arc t
                else if Hashtbl.mem rows arc then fail "duplicate arc %d" arc
                else
                  (* A vector accepted by the parser must be directly
                     usable as a search starting point. *)
                  match
                    List.find_opt
                      (fun v -> v < Weights.min_weight || v > Weights.max_weight)
                      values
                  with
                  | Some v ->
                      fail "weight %d out of range [%d, %d]" v Weights.min_weight
                        Weights.max_weight
                  | None ->
                      Hashtbl.add rows arc values;
                      next header)
            | _ -> fail "bad weights")
        | _ -> fail "unknown directive")
  in
  parse 1 None (String.split_on_char '\n' s)

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
