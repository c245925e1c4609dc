(** One driver per table/figure of the paper's evaluation (section 3), plus
    Table 1. Each returns a {!Report.t} with the same rows/series the paper
    plots; EXPERIMENTS.md records the paper-vs-measured comparison. *)

(** Scale runs down (~2x fewer Jacobi iterations, smaller Cholesky stand-in
    for bcsstk15) for faster turnaround; shapes are preserved. *)
val quick : bool ref

(** Table 1: the simulated machine's parameters. *)
val table1 : unit -> Report.t

(** All experiments in paper order: [(id, run)]. *)
val all : (string * (unit -> Report.t)) list
