(** Application Device Channels as a user-level messaging API
    (paper section 2.1).

    Opening a channel allocates a receive ring in host memory (DESIGN §7c;
    the transmit and free queues of the paper's triplet are folded into the
    send path and the ring's slot bound respectively) and programs the
    PATHFINDER to steer matching packets into it. The application then
    sends and receives without any kernel involvement; protection was checked
    once, at channel-open time.

    Receive-side flow control is the free queue's: the ring has a fixed
    number of slots, and an arriving packet that finds the ring full stalls
    the board's handler until the application has consumed a slot. *)

type 'a t

(** [open_channel nic ~channel ()] — allocates the ring (default 32 slots)
    and installs the delivery handler for [channel], charged to board
    memory like any installation. Incoming bulk data is DMAed to the
    channel's posted receive buffer, a channel-indexed page in a dedicated
    region ({!buffer_base}) — two channels never share a delivery page.
    @raise Failure if the board cannot hold the handler. *)
val open_channel : 'a Nic.t -> channel:int -> ?slots:int -> unit -> 'a t

(** Host virtual address incoming bulk data for this channel is DMAed to. *)
val buffer_base : 'a t -> int

(** Tear down: uninstalls the handler, before or after any scrub; later
    arrivals for the channel fall to the NIC's default handler. *)
val close : 'a t -> unit

(** [send t ~dst ?data payload] transmits on this channel (host-side cost
    charged in the calling fiber, as {!Nic.send}). [data] attaches a bulk
    buffer. *)
val send : 'a t -> dst:int -> ?data:Nic.data -> 'a -> unit

(** Blocking receive (fiber context). The caller is the polling host: use
    {!Cni_cluster.Node.blocking} around it for time accounting. *)
val recv : 'a t -> 'a Cni_atm.Fabric.packet

val try_recv : 'a t -> 'a Cni_atm.Fabric.packet option

(** Packets queued and not yet consumed. *)
val backlog : 'a t -> int

val channel_id : 'a t -> int
