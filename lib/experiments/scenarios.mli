(** Bench section over the scenario library: replay every scenario on
    the new allocator and tabulate throughput, the trace-driven
    complement to the paper's synthetic best/worst-case figures.

    Replays are independent cells and fan out over {!Parallel.map};
    everything printed is simulated-machine data, so the output is
    bit-identical at any job count.  Host time is the bench driver's
    per-section line, never a table column. *)

type row = {
  name : string;
  ncpus : int;
  events : int;
  result : Workload.Trace.result;
  ops_per_sec : float;  (** simulated ops per simulated second *)
}

val run : ?jobs:int -> unit -> row list
(** [run ()] replays {!Scenario.all} (default seeds), [jobs]-wide. *)

val print : row list -> unit
(** Deterministic table of the simulated columns. *)

val print_highlights : unit -> unit
(** For each scenario with a target pathology, run the (serial, flight
    recorder) {!Scenario.Pathology} analysis and print one line saying
    whether the target was detected — the bench-level proof that the
    detectors fire where they should. *)
