module Graph = Dtr_graph.Graph

let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.node_count g));
  Array.iter
    (fun (a : Graph.arc) ->
      Buffer.add_string buf
        (Printf.sprintf "arc %d %d %.17g %.17g\n" a.src a.dst a.capacity a.delay))
    (Graph.arcs g);
  Buffer.contents buf

(* Field separator: any run of blanks, so tab-separated (and, via
   String.trim, CRLF-terminated) files parse the same as
   space-separated ones. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let split_fields line =
  let n = String.length line in
  let fields = ref [] in
  let start = ref (-1) in
  for i = n - 1 downto 0 do
    if is_blank line.[i] then begin
      if !start >= 0 then begin
        fields := String.sub line (i + 1) (!start - i) :: !fields;
        start := -1
      end
    end
    else begin
      if !start < 0 then start := i;
      if i = 0 then fields := String.sub line 0 (!start + 1) :: !fields
    end
  done;
  !fields

(* Endpoint errors are reported at the arc's own line: checked there
   once the node count is known, or, for arcs listed before the
   [nodes] directive, as soon as it appears. *)
let endpoint_error n (line, (a : Graph.arc)) =
  match List.find_opt (fun v -> v < 0 || v >= n) [ a.src; a.dst ] with
  | Some v -> Some (Printf.sprintf "line %d: node %d out of range [0, %d)" line v n)
  | None when a.src = a.dst ->
      Some (Printf.sprintf "line %d: self-loop at node %d" line a.src)
  | None -> None

let of_string s =
  let lines = String.split_on_char '\n' s in
  let nodes = ref None in
  let arcs = ref [] (* (line, arc), newest first *) in
  let error = ref None in
  List.iteri
    (fun lineno line ->
      if !error = None then begin
        let line = String.trim line in
        let fail fmt =
          Printf.ksprintf (fun msg -> error := Some msg) ("line %d: " ^^ fmt)
            (lineno + 1)
        in
        if line <> "" && not (String.length line > 0 && line.[0] = '#') then begin
          match split_fields line with
          | [ "nodes"; n ] -> (
              match (int_of_string_opt n, !nodes) with
              | Some _, Some _ -> fail "duplicate 'nodes' directive"
              | Some n, None when n > 0 ->
                  nodes := Some n;
                  error := List.find_map (endpoint_error n) (List.rev !arcs)
              | _ -> fail "bad node count")
          | [ "arc"; src; dst; cap; delay ] -> (
              match
                ( int_of_string_opt src,
                  int_of_string_opt dst,
                  float_of_string_opt cap,
                  float_of_string_opt delay )
              with
              | Some src, Some dst, Some capacity, Some delay ->
                  (* Reject values that would only blow up deep inside a
                     search (Φ with capacity 0, NaN propagating through
                     every load sum) — a parse error with a line number
                     beats an exception mid-sweep. *)
                  if Float.is_nan capacity || Float.is_nan delay then
                    fail "arc has NaN field"
                  else if
                    capacity = Float.infinity || capacity = Float.neg_infinity
                    || delay = Float.infinity || delay = Float.neg_infinity
                  then fail "arc has infinite field"
                  else if capacity <= 0. then
                    fail "arc capacity must be positive (got %.17g)" capacity
                  else if delay < 0. then
                    fail "arc delay must be non-negative (got %.17g)" delay
                  else begin
                    let arc = (lineno + 1, { Graph.src; dst; capacity; delay }) in
                    match Option.bind !nodes (fun n -> endpoint_error n arc) with
                    | Some e -> error := Some e
                    | None -> arcs := arc :: !arcs
                  end
              | _ -> fail "bad arc")
          | _ -> fail "unknown directive"
        end
      end)
    lines;
  match (!error, !nodes) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'nodes' directive"
  | None, Some n -> (
      match Graph.build ~n (List.rev_map snd !arcs) with
      | g -> Ok g
      | exception Invalid_argument msg -> Error msg)

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s
