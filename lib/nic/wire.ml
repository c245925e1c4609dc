module Pattern = Cni_pathfinder.Pattern

let magic = 0xC1A0
let header_bytes = 16

type t = {
  kind : int;
  cacheable : bool;
  has_data : bool;
  src : int;
  channel : int;
  obj : int;
  aux : int;
}

let encode t =
  let b = Bytes.create header_bytes in
  Bytes.set_uint16_be b 0 magic;
  Bytes.set_uint8 b 2 t.kind;
  let flags = (if t.cacheable then 1 else 0) lor if t.has_data then 2 else 0 in
  Bytes.set_uint8 b 3 flags;
  Bytes.set_uint16_be b 4 t.src;
  Bytes.set_uint16_be b 6 t.channel;
  Bytes.set_int32_be b 8 (Int32.of_int t.obj);
  Bytes.set_int32_be b 12 (Int32.of_int t.aux);
  b

let decode b =
  if Bytes.length b < header_bytes then invalid_arg "Wire.decode: short header";
  if Bytes.get_uint16_be b 0 <> magic then invalid_arg "Wire.decode: bad magic";
  let flags = Bytes.get_uint8 b 3 in
  {
    kind = Bytes.get_uint8 b 2;
    cacheable = flags land 1 <> 0;
    has_data = flags land 2 <> 0;
    src = Bytes.get_uint16_be b 4;
    channel = Bytes.get_uint16_be b 6;
    obj = Int32.to_int (Bytes.get_int32_be b 8);
    aux = Int32.to_int (Bytes.get_int32_be b 12);
  }

let valid b = Bytes.length b >= header_bytes && Bytes.get_uint16_be b 0 = magic
let decode_opt b = if valid b then Some (decode b) else None
let read_kind b = Bytes.get_uint8 b 2
let read_channel b = Bytes.get_uint16_be b 6
let read_obj b = Int32.to_int (Bytes.get_int32_be b 8)
let read_aux b = Int32.to_int (Bytes.get_int32_be b 12)

let with_aux b aux =
  let c = Bytes.copy b in
  Bytes.set_int32_be c 12 (Int32.of_int aux);
  c

let pattern_any = [ Pattern.field ~offset:0 ~len:2 magic ]

let pattern_channel ~channel =
  [ Pattern.field ~offset:0 ~len:2 magic; Pattern.field ~offset:6 ~len:2 channel ]

let pattern_channel_kind ~channel ~kind =
  [
    Pattern.field ~offset:0 ~len:2 magic;
    Pattern.field ~offset:6 ~len:2 channel;
    Pattern.field ~offset:2 ~len:1 kind;
  ]
