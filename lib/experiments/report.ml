module Stats = Cni_engine.Stats

type t = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
  metrics : (string * float) list;
  snapshot : Stats.Registry.snapshot;
}

let make ~id ~title ~columns ?(notes = []) ?(metrics = []) ?(snapshot = []) rows =
  { id; title; columns; rows; notes; metrics; snapshot }

let to_text t =
  let all = t.columns :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let render_row row =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%*s" widths.(i) cell) row)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" t.id t.title);
  Buffer.add_string buf (render_row t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (render_row t.columns)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    t.rows;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) t.notes;
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  metric: %s = %g\n" name v))
    t.metrics;
  Buffer.contents buf

let print t =
  print_string (to_text t);
  print_newline ()

let write_csv ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (t.id ^ ".csv")) in
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  let line row = output_string oc (String.concat "," (List.map escape row) ^ "\n") in
  line t.columns;
  List.iter line t.rows;
  close_out oc

let write_metrics_json ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (t.id ^ ".metrics.json")) in
  let summary =
    t.metrics
    |> List.map (fun (name, v) -> Printf.sprintf "    \"%s\": %g" (Stats.json_escape name) v)
    |> String.concat ",\n"
  in
  output_string oc
    (Printf.sprintf "{\n  \"id\": \"%s\",\n  \"title\": \"%s\",\n  \"summary\": {\n%s\n  },\n  \"registry\": %s\n}\n"
       (Stats.json_escape t.id) (Stats.json_escape t.title) summary
       (Stats.Registry.snapshot_to_json t.snapshot));
  close_out oc

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let gcycles time =
  let cycles =
    Cni_engine.Time.to_s_float time *. float_of_int Cni_machine.Params.default.Cni_machine.Params.cpu_hz
  in
  Printf.sprintf "%.3f" (cycles /. 1e9)
