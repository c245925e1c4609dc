type field = { offset : int; len : int; mask : int; value : int }
type t = field list

let all_ones len = if len >= 8 then -1 else (1 lsl (len * 8)) - 1

let field ~offset ~len ?mask value =
  if len < 1 || len > 8 then invalid_arg "Pattern.field: len must be within 1..8";
  if offset < 0 then invalid_arg "Pattern.field: negative offset";
  let mask = match mask with Some m -> m | None -> all_ones len in
  { offset; len; mask; value = value land mask }

let read_masked header ~offset ~len ~mask =
  if offset < 0 || len < 1 || offset + len > Bytes.length header then None
  else begin
    let v = ref 0 in
    for i = 0 to len - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.get header (offset + i))
    done;
    Some (!v land mask)
  end

let read_field header f =
  read_masked header ~offset:f.offset ~len:f.len ~mask:f.mask

let matches_field header f =
  match read_field header f with Some v -> v = f.value | None -> false

let matches t header = List.for_all (matches_field header) t

let pp_field fmt f =
  Format.fprintf fmt "[%d:%d & 0x%x = 0x%x]" f.offset f.len f.mask f.value

let pp fmt t =
  Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") pp_field fmt t
