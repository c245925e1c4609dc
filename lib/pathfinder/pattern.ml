type field = { offset : int; len : int; mask : int; value : int }
type t = field list

(* [len] is capped at 7 bytes: a big-endian read of 8 bytes would need 64
   bits, one more than an OCaml [int] holds, and would silently drop the top
   bit of the first byte. At 7 bytes every read value is below 2^56, so a
   masked read is never negative and [read_raw] can use -1 for "out of
   range". *)
let max_len = 7
let all_ones len = (1 lsl (len * 8)) - 1

let field ~offset ~len ?mask value =
  if len < 1 || len > max_len then invalid_arg "Pattern.field: len must be within 1..7";
  if offset < 0 then invalid_arg "Pattern.field: negative offset";
  let mask = match mask with Some m -> m | None -> all_ones len in
  { offset; len; mask; value = value land mask }

let read_raw header ~offset ~len ~mask =
  if offset < 0 || len < 1 || len > max_len || offset + len > Bytes.length header then -1
  else begin
    let v = ref 0 in
    for i = offset to offset + len - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get header i)
    done;
    !v land mask
  end

let read_masked header ~offset ~len ~mask =
  let v = read_raw header ~offset ~len ~mask in
  if v < 0 then None else Some v

let read_field header f =
  read_masked header ~offset:f.offset ~len:f.len ~mask:f.mask

let matches_field header f =
  let v = read_raw header ~offset:f.offset ~len:f.len ~mask:f.mask in
  v >= 0 && v = f.value

let matches t header = List.for_all (matches_field header) t

let pp_field fmt f =
  Format.fprintf fmt "[%d:%d & 0x%x = 0x%x]" f.offset f.len f.mask f.value

let pp fmt t =
  Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") pp_field fmt t
