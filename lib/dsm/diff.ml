let word_bytes = 8

type run = { offset : int (* byte offset, word aligned *); data : Bytes.t }
type t = run list (* ascending, non-adjacent *)

let create ~twin ~current =
  let len = Bytes.length twin in
  if Bytes.length current <> len then invalid_arg "Diff.create: length mismatch";
  if len mod word_bytes <> 0 then invalid_arg "Diff.create: not a word multiple";
  let words = len / word_bytes in
  let runs = ref [] in
  let run_start = ref (-1) in
  let close_run stop_word =
    if !run_start >= 0 then begin
      let off = !run_start * word_bytes in
      let nbytes = (stop_word - !run_start) * word_bytes in
      runs := { offset = off; data = Bytes.sub current off nbytes } :: !runs;
      run_start := -1
    end
  in
  for w = 0 to words - 1 do
    let off = w * word_bytes in
    let same = Bytes.get_int64_ne twin off = Bytes.get_int64_ne current off in
    if same then close_run w else if !run_start < 0 then run_start := w
  done;
  close_run words;
  List.rev !runs

let apply t page =
  List.iter
    (fun { offset; data } ->
      if offset < 0 || offset + Bytes.length data > Bytes.length page then
        invalid_arg "Diff.apply: run outside page";
      Bytes.blit data 0 page offset (Bytes.length data))
    t

let changed_words t =
  List.fold_left (fun acc r -> acc + (Bytes.length r.data / word_bytes)) 0 t

let runs = List.length
let is_empty t = t = []
let wire_bytes t = List.fold_left (fun acc r -> acc + 8 + Bytes.length r.data) 0 t

let encode t =
  let total = wire_bytes t in
  let b = Bytes.create (4 + total) in
  Bytes.set_int32_be b 0 (Int32.of_int (List.length t));
  let pos = ref 4 in
  List.iter
    (fun r ->
      Bytes.set_int32_be b !pos (Int32.of_int r.offset);
      Bytes.set_int32_be b (!pos + 4) (Int32.of_int (Bytes.length r.data));
      Bytes.blit r.data 0 b (!pos + 8) (Bytes.length r.data);
      pos := !pos + 8 + Bytes.length r.data)
    t;
  b

let decode b =
  let n = Int32.to_int (Bytes.get_int32_be b 0) in
  let pos = ref 4 in
  List.init n (fun _ ->
      let offset = Int32.to_int (Bytes.get_int32_be b !pos) in
      let len = Int32.to_int (Bytes.get_int32_be b (!pos + 4)) in
      let data = Bytes.sub b (!pos + 8) len in
      pos := !pos + 8 + len;
      { offset; data })

(* Compose by materialising onto a scratch page covering both extents. *)
let merge older newer =
  match (older, newer) with
  | [], t | t, [] -> t
  | _ ->
      let extent t =
        List.fold_left (fun acc r -> max acc (r.offset + Bytes.length r.data)) 0 t
      in
      let len = max (extent older) (extent newer) in
      let base = Bytes.make len '\000' in
      apply older base;
      apply newer base;
      (* a twin equal to base everywhere except touched words, which are
         complemented so every touched word survives into the composite *)
      let twin = Bytes.copy base in
      let mark t =
        List.iter
          (fun r ->
            for w = r.offset / word_bytes to ((r.offset + Bytes.length r.data) / word_bytes) - 1 do
              let off = w * word_bytes in
              Bytes.set_int64_ne twin off (Int64.lognot (Bytes.get_int64_ne base off))
            done)
          t
      in
      mark older;
      mark newer;
      create ~twin ~current:base
