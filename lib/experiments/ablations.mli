(** Ablation benchmarks isolating the contribution of each CNI mechanism
    (DESIGN.md section 7): the Message Cache, Application Interrupt
    Handlers, the polling/interrupt hybrid and write-update snooping, each
    switched off against a standard board, plus the receive-policy, fault,
    crash, collective, topology and serving sweeps and two wall-clock
    microbenchmarks. Each report is a table of rows, one run per row. *)

(** Every ablation and microbenchmark, in report order: [(id, run)]. *)
val all : (string * (unit -> Report.t)) list
