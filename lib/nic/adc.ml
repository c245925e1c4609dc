module Fabric = Cni_atm.Fabric
module Params = Cni_machine.Params

type 'a t = {
  nic : 'a Nic.t;
  channel : int;
  ring : 'a Fabric.packet Ring.t;
  handle : Nic.handle;
  buffer_base : int;
}

(* Posted receive buffers live in a dedicated host region, one page per
   channel: distinct channels must never deliver into the same page (they
   would clobber each other's data and confuse the snooper). *)
let posted_buffer_region = 1 lsl 22

let open_channel nic ~channel ?(slots = 32) () =
  let buffer_base = posted_buffer_region + (channel * (Nic.params nic).Params.page_bytes) in
  let ring =
    Ring.create ?registry:(Nic.registry nic) ~node:(Nic.node nic)
      ~subsystem:(Printf.sprintf "adc-ch%d/ring" channel)
      ~slots ()
  in
  (* the ring is host memory (DESIGN.md §7c); the board holds only the
     delivery handler, charged as any installation *)
  let handle =
    Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel) (fun ctx pkt ->
        (* deliver bulk data into this channel's posted host buffer, then
           enqueue the descriptor; a full ring exerts back-pressure on the
           board *)
        let hdr = Wire.decode pkt.Fabric.header in
        if hdr.Wire.has_data then
          ctx.Nic.deliver_page ~vaddr:buffer_base ~bytes:pkt.Fabric.body_bytes
            ~cacheable:hdr.Wire.cacheable;
        ctx.Nic.charge 10;
        Ring.push ring pkt)
  in
  { nic; channel; ring; handle; buffer_base }

let close t = Nic.uninstall_handler t.nic t.handle

let send t ~dst ?(data = Nic.No_data) payload =
  let has_data, cacheable, data_bytes =
    match data with
    | Nic.No_data -> (false, false, 0)
    | Nic.Page { bytes; cacheable; _ } -> (true, cacheable, bytes)
  in
  assert ((not has_data) || data_bytes > 0);
  let header =
    Wire.encode
      {
        Wire.kind = 0;
        cacheable;
        has_data;
        src = Nic.node t.nic;
        channel = t.channel;
        obj = 0;
        aux = 0;
      }
  in
  (* exactly-once wire accounting: bulk data rides as [data], and the
     transmit path folds its size into the frame's cell count. The inline
     body must therefore stay empty — passing [data_bytes] as [body_bytes]
     too would serialise the payload twice *)
  Nic.send t.nic ~dst ~header ~body_bytes:0 ~data ~payload

let recv t = Ring.pop t.ring
let try_recv t = Ring.try_pop t.ring
let backlog t = Ring.length t.ring
let channel_id t = t.channel
let buffer_base t = t.buffer_base
