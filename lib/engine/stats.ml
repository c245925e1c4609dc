module Counter = struct
  type t = { name : string; mutable v : int }

  let create name = { name; v = 0 }
  let name t = t.name
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let set t n = t.v <- n
  let value t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  (* sub_bits = 5: 32 sub-buckets per power-of-two octave. Values < 32 are
     their own bucket (exact); above that, bucket [b*32 + s] (b >= 1)
     covers [(32+s) << (b-1) .. (32+s+1) << (b-1) - 1], width 1/32 of the
     value — constant relative error. 62-bit values top out at index
     58*32 + 31, so 1920 buckets cover every OCaml int. *)
  let sub = 32
  let max_relative_error = 1. /. float_of_int sub
  let nbuckets = 1920

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { counts = Array.make nbuckets 0; count = 0; sum = 0; min_v = max_int; max_v = 0 }

  let msb v =
    let k = ref 0 in
    let x = ref v in
    while !x > 1 do
      incr k;
      x := !x lsr 1
    done;
    !k

  let index v = if v < sub then v else let k = msb v in ((k - 4) * sub) + (v lsr (k - 5)) - sub

  let bucket_bounds idx =
    if idx < sub then (idx, idx)
    else
      let b = idx / sub and s = idx mod sub in
      let shift = b - 1 in
      let lo = (sub + s) lsl shift in
      (lo, lo + (1 lsl shift) - 1)

  let observe t v =
    let v = if v < 0 then 0 else v in
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = t.max_v
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  let quantile t q =
    if t.count = 0 then 0
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
        Stdlib.min t.count (Stdlib.max 1 r)
      in
      let idx = ref 0 and cum = ref 0 in
      while !cum < rank do
        cum := !cum + t.counts.(!idx);
        incr idx
      done;
      let _, hi = bucket_bounds (!idx - 1) in
      Stdlib.min hi t.max_v
    end

  let buckets t =
    let acc = ref [] in
    for idx = nbuckets - 1 downto 0 do
      if t.counts.(idx) > 0 then
        let lo, hi = bucket_bounds idx in
        acc := (lo, hi, t.counts.(idx)) :: !acc
    done;
    !acc

  let reset t =
    Array.fill t.counts 0 nbuckets 0;
    t.count <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- 0
end

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

module Registry = struct
  type metric = C of Counter.t | H of Histogram.t

  type t = { tbl : (string, metric) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }

  let full_name ?node ~subsystem name =
    match node with
    | Some n -> Printf.sprintf "node%d/%s/%s" n subsystem name
    | None -> subsystem ^ "/" ^ name

  let mismatch key = invalid_arg (Printf.sprintf "Stats.Registry: %S registered with another type" key)

  let counter t ?node ~subsystem name =
    let key = full_name ?node ~subsystem name in
    match Hashtbl.find_opt t.tbl key with
    | Some (C c) -> c
    | Some _ -> mismatch key
    | None ->
        let c = Counter.create key in
        Hashtbl.replace t.tbl key (C c);
        c

  let histogram t ?node ~subsystem name =
    let key = full_name ?node ~subsystem name in
    match Hashtbl.find_opt t.tbl key with
    | Some (H h) -> h
    | Some _ -> mismatch key
    | None ->
        let h = Histogram.create () in
        Hashtbl.replace t.tbl key (H h);
        h

  let size t = Hashtbl.length t.tbl

  let reset t =
    Hashtbl.iter
      (fun _ m ->
        match m with
        | C c -> Counter.reset c
        | H h -> Histogram.reset h)
      t.tbl

  (* ---------------- snapshots ---------------- *)

  type value =
    | Counter_v of int
    | Histogram_v of { count : int; buckets : (int * int * int) list }

  type snapshot = (string * value) list

  let snapshot t =
    Hashtbl.fold
      (fun key m acc ->
        let v =
          match m with
          | C c -> Counter_v (Counter.value c)
          | H h -> Histogram_v { count = Histogram.count h; buckets = Histogram.buckets h }
        in
        (key, v) :: acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* [diff ~before ~after]: the metric movement between two snapshots.
     Counters and histogram counts subtract, and histogram buckets subtract
     bucket by bucket. Metrics absent from [before] diff against zero. *)
  let diff ~before ~after =
    let prior = Hashtbl.create (List.length before) in
    List.iter (fun (k, v) -> Hashtbl.replace prior k v) before;
    List.map
      (fun (k, v) ->
        match (v, Hashtbl.find_opt prior k) with
        | Counter_v n, Some (Counter_v n0) -> (k, Counter_v (n - n0))
        | Histogram_v h, Some (Histogram_v h0) ->
            let prior_buckets = List.map (fun (lo, _, n) -> (lo, n)) h0.buckets in
            let buckets =
              List.filter_map
                (fun (lo, hi, n) ->
                  let n0 = Option.value (List.assoc_opt lo prior_buckets) ~default:0 in
                  if n - n0 <> 0 then Some (lo, hi, n - n0) else None)
                h.buckets
            in
            (k, Histogram_v { count = h.count - h0.count; buckets })
        | v, _ -> (k, v))
      after

  (* ---------------- JSON export ---------------- *)

  let value_to_json = function
    | Counter_v n -> string_of_int n
    | Histogram_v { count; buckets } ->
        Printf.sprintf "{\"count\":%d,\"buckets\":[%s]}" count
          (String.concat ","
             (List.map (fun (lo, hi, n) -> Printf.sprintf "[%d,%d,%d]" lo hi n) buckets))

  let snapshot_to_json snap =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (Printf.sprintf "  \"%s\": %s" (json_escape k) (value_to_json v)))
      snap;
    Buffer.add_string buf "\n}\n";
    Buffer.contents buf
end
