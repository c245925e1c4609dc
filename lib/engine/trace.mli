(** Structured simulation tracing.

    A fixed-capacity ring buffer of typed records, gated per category. At
    capacity the oldest records are overwritten (newest are always kept).
    Disabled by default; a disabled emit performs no allocation, so call
    sites may sit on simulation hot paths.

    The buffer is global: one simulation traces at a time (the simulator is
    single-threaded and deterministic). *)

type category = Engine | Nic | Dsm | Atm | App

val categories : category list
val category_name : category -> string
val category_of_name : string -> category option

type event = Point | Span_begin | Span_end

type record = {
  t_ps : int;  (** simulated time, picoseconds *)
  node : int;  (** -1 when not node-specific *)
  category : category;
  event : event;
  label : string;
  payload : int;
}

(** {2 Gating} *)

val enabled : bool ref
(** Master switch. Prefer {!enable} / {!disable}. *)

val enable : ?cats:category list -> unit -> unit
(** Enable tracing for the given categories (default: all). *)

val disable : unit -> unit

val enabled_cat : category -> bool
(** True when tracing is on and the category is selected. Call sites that
    would allocate to build a label should test this first. *)

(** {2 Emission} *)

val emit : t_ps:int -> node:int -> category -> label:string -> payload:int -> unit
val span_begin : t_ps:int -> node:int -> category -> label:string -> payload:int -> unit
val span_end : t_ps:int -> node:int -> category -> label:string -> payload:int -> unit

(** {2 Buffer access} *)

val default_capacity : int

val set_capacity : int -> unit
(** Resize the ring buffer; clears it. *)

val capacity : unit -> int

val clear : unit -> unit

val length : unit -> int
(** Records currently held (at most [capacity ()]). *)

val emitted : unit -> int
(** Total records emitted since the last [clear], including overwritten. *)

val dropped : unit -> int
(** [emitted () - length ()]: oldest records lost to overwrite. *)

val iter : (record -> unit) -> unit
(** Oldest first. *)

val records : unit -> record list
(** Oldest first. *)

(** {2 Latency attribution} *)

type span = {
  span_node : int;
  span_category : category;
  span_label : string;
  t_start_ps : int;
  duration_ps : int;
}

val spans : unit -> span list
(** Pair [Span_end] records with the most recent unmatched [Span_begin] of
    the same (node, category, label), in completion order. *)

(** {2 Sinks} *)

val pp_record : Format.formatter -> record -> unit
val write_human : out_channel -> unit
val write_jsonl : out_channel -> unit
val write_csv : out_channel -> unit
