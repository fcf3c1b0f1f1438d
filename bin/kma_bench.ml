(* Experiment driver: one subcommand per paper artifact, plus [bench],
   the full harness that runs them all.  See DESIGN.md for the
   experiment index and EXPERIMENTS.md for recorded results. *)

open Cmdliner

(* Validated argument converters: an out-of-range CPU count or fault
   rate becomes a clear usage error (non-zero exit) at parse time
   instead of an exception escaping from the simulator. *)
let cpus_range = (1, Sim.Config.max_cpus) (* Sim.Config's accepted range *)

let check_cpus n =
  let lo, hi = cpus_range in
  if n >= lo && n <= hi then Ok n
  else
    Error
      (`Msg (Printf.sprintf "CPU count %d out of range [%d, %d]" n lo hi))

let cpus_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n -> check_cpus n
    | None -> Error (`Msg (Printf.sprintf "invalid CPU count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cpu_list_conv =
  let parse s =
    let rec all = function
      | [] -> Ok ()
      | Error e :: _ -> Error e
      | Ok _ :: rest -> all rest
    in
    let parts = String.split_on_char ',' s in
    let checked =
      List.map
        (fun p ->
          match int_of_string_opt (String.trim p) with
          | Some n -> check_cpus n
          | None -> Error (`Msg (Printf.sprintf "invalid CPU count %S" p)))
        parts
    in
    match all checked with
    | Error e -> Error e
    | Ok () -> Ok (List.map (function Ok n -> n | Error _ -> assert false) checked)
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

let check_rate r =
  if r >= 0. && r <= 1. then Ok r
  else Error (`Msg (Printf.sprintf "fault rate %g out of range [0, 1]" r))

let rate_list_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match float_of_string_opt (String.trim p) with
          | Some r -> (
              match check_rate r with
              | Ok r -> go (r :: acc) rest
              | Error e -> Error e)
          | None -> Error (`Msg (Printf.sprintf "invalid fault rate %S" p)))
    in
    go [] parts
  in
  let print ppf l =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") l))
  in
  Arg.conv (parse, print)

(* Shared --jobs plumbing: sweeps of independent cells fan out over
   the lib/parallel domain pool.  Validated like the other converters:
   a zero or negative job count is a usage error at parse time. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "job count %d out of range (want >= 1)" n))
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_flag =
  Arg.(
    value
    & opt jobs_conv (Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan the sweep's independent cells out over $(docv) domains \
           (default: the host's recommended domain count).  Results are \
           bit-identical at any job count.")

(* Shared --geometry plumbing: evaluating the term installs the flag's
   geometry as the ambient one, overriding whatever the KMA_GEOMETRY
   environment variable installed at startup; a run function receives
   the resulting [()] after the install.  Parse errors are usage errors
   at the cmdliner layer (non-zero exit before any simulation runs). *)
let geometry_conv =
  let parse s =
    match Sim.Geometry.of_string s with
    | Ok g -> Ok g
    | Error msg -> Error (`Msg msg)
  in
  let print ppf g = Format.pp_print_string ppf (Sim.Geometry.to_string g) in
  Arg.conv (parse, print)

let geometry_flag =
  Term.(
    const (Option.iter Sim.Geometry.set_ambient)
    $ Arg.(
        value
        & opt (some geometry_conv) None
        & info [ "geometry" ] ~docv:"SPEC"
            ~doc:
              "Cache geometry and cost model for the simulated machine, as \
               a comma-separated key=value list over the recorded-results \
               default (keys: line, lines, assoc, insn, miss, c2c, upgrade, \
               rmw).  Overrides the $(b,KMA_GEOMETRY) environment variable."))

(* Allocator names are user input on several subcommands; an unknown
   name must fail usage-style with the full roster, so a typo never
   silently falls back to a default arm. *)
let alloc_conv =
  let parse s =
    match Baseline.Allocator.of_name s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown allocator %s (valid: %s)" s
               Baseline.Allocator.roster_string))
  in
  let print ppf w =
    Format.pp_print_string ppf (Baseline.Allocator.name_of w)
  in
  Arg.conv (parse, print)

let allocs_flag ~default =
  Arg.(
    value
    & opt (list alloc_conv) default
    & info [ "allocs" ] ~docv:"NAME,NAME,..."
        ~doc:
          (Printf.sprintf "Allocator arms to sweep (any of: %s)."
             Baseline.Allocator.roster_string))

let fig7_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Fig7.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~doc:"Timed alloc/free pairs per CPU.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let semilog =
    Arg.(
      value & flag
      & info [ "semilog" ] ~doc:"Print the Figure 8 (log10) view too.")
  in
  let gnuplot =
    Arg.(
      value & opt (some string) None
      & info [ "gnuplot" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.dat and PREFIX.gp for rendering with gnuplot.")
  in
  let whichs = allocs_flag ~default:Baseline.Allocator.all in
  let run () whichs cpus iters bytes semilog gnuplot jobs =
    let points = Experiments.Fig7.run ~jobs ~whichs ~cpus ~iters ~bytes () in
    Experiments.Fig7.print_linear points;
    if semilog then Experiments.Fig7.print_semilog points;
    (match gnuplot with
    | Some prefix ->
        Experiments.Plot.write_fig7 points ~prefix;
        Experiments.Plot.write_fig8 points ~prefix:(prefix ^ "-semilog");
        Printf.printf "wrote %s.{dat,gp} and %s-semilog.{dat,gp}\n" prefix
          prefix
    | None -> ());
    if
      List.mem Baseline.Allocator.Cookie whichs
      && List.mem Baseline.Allocator.Oldkma whichs
    then
      Printf.printf "\nsingle-CPU cookie/oldkma ratio: %.1fx\n"
        (Experiments.Fig7.single_cpu_ratio points
           ~num:Baseline.Allocator.Cookie ~den:Baseline.Allocator.Oldkma)
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Best-case pairs/s vs CPUs (Figure 7); $(b,--allocs) swaps in \
          any arm from the laboratory roster.")
    Term.(
      const run $ geometry_flag $ whichs $ cpus $ iters $ bytes $ semilog
      $ gnuplot $ jobs_flag)

let fig8_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Fig7.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters = Arg.(value & opt int 2000 & info [ "iters" ] ~doc:"Pairs/CPU.") in
  let whichs = allocs_flag ~default:Baseline.Allocator.all in
  let run whichs cpus iters jobs =
    let points = Experiments.Fig7.run ~jobs ~whichs ~cpus ~iters () in
    Experiments.Fig7.print_semilog points
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Same data as fig7 on a semilog scale (Figure 8).")
    Term.(const run $ whichs $ cpus $ iters $ jobs_flag)

let fig9_cmd =
  let alloc =
    Arg.(
      value
      & opt alloc_conv Baseline.Allocator.Newkma
      & info [ "allocator" ] ~doc:"Allocator to sweep.")
  in
  let memory =
    Arg.(
      value & opt int (1024 * 1024)
      & info [ "memory-words" ] ~doc:"Simulated memory size in words.")
  in
  let cap =
    Arg.(
      value & opt int 0
      & info [ "cap" ] ~doc:"Max blocks per size (0 = until exhaustion).")
  in
  let gnuplot =
    Arg.(
      value & opt (some string) None
      & info [ "gnuplot" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.dat and PREFIX.gp for rendering with gnuplot.")
  in
  let run w memory cap gnuplot =
    let results = Experiments.Fig9.run ~which:w ~memory_words:memory ~cap () in
    Experiments.Fig9.print results;
    (match gnuplot with
    | Some prefix ->
        Experiments.Plot.write_fig9 results ~prefix;
        Printf.printf "wrote %s.dat and %s.gp\n" prefix prefix
    | None -> ());
    if not (Experiments.Fig9.completed results) then
      print_endline
        "NOTE: the sweep wedged (an allocator without coalescing cannot \
         complete this benchmark)"
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Worst-case pairs/s vs block size (Figure 9).")
    Term.(const run $ alloc $ memory $ cap $ gnuplot)

let run_opcounts jobs =
  Experiments.Opcounts.print (Experiments.Opcounts.run ~jobs ())

let opcounts_cmd =
  Cmd.v
    (Cmd.info "opcounts" ~doc:"Warm fast-path instruction counts (E2).")
    Term.(const run_opcounts $ jobs_flag)

(* Shared --lockcheck plumbing: enable the synchronization validator
   around a workload run and print its report afterwards.  The checker
   is host-side (like the flight recorder), so simulated cycle counts
   are unchanged; a violation aborts the run with the diagnosis. *)
let lockcheck_flag =
  Arg.(
    value & flag
    & info [ "lockcheck" ]
        ~doc:
          "Validate the synchronization discipline during the run \
           (lock-order graph / ABBA detection, per-CPU interrupt \
           discipline, locks held across VM calls) and print the \
           lockcheck report. Zero simulated-cycle overhead; a violation \
           aborts with both acquisition backtraces.")

let with_lockcheck ~enabled f =
  if not enabled then f ()
  else begin
    Lockcheck.enable ();
    Fun.protect
      ~finally:(fun () -> Lockcheck.disable ())
      (fun () ->
        let r = f () in
        print_newline ();
        print_string (Lockcheck.report ());
        r)
  end

(* Shared --heapcheck plumbing: arm the heap-consistency checker around
   a workload run; checkpoints fire at the experiments' quiescent
   points.  Like lockcheck, the checker is host-side (uncharged reads
   only), so simulated cycle counts are unchanged.  Any recorded
   violation makes the driver exit non-zero. *)
let heapcheck_mode_conv =
  let parse = function
    | "paranoid" -> Ok Heapcheck.Paranoid
    | "sweep" -> Ok (Heapcheck.Sweep 64)
    | s ->
        Error
          (`Msg
             (Printf.sprintf "unknown heapcheck mode %S (paranoid or sweep)" s))
  in
  let print ppf = function
    | Heapcheck.Paranoid -> Format.pp_print_string ppf "paranoid"
    | Heapcheck.Sweep _ -> Format.pp_print_string ppf "sweep"
  in
  Arg.conv (parse, print)

let heapcheck_flag =
  Arg.(
    value
    & opt ~vopt:(Some Heapcheck.Paranoid) (some heapcheck_mode_conv) None
    & info [ "heapcheck" ] ~docv:"MODE"
        ~doc:
          "Check heap consistency (freelist count words, page-descriptor \
           states, pagepool hints, block conservation, duplicate blocks) \
           at the run's quiescent points and print the heapcheck report. \
           MODE is $(b,paranoid) (default) or $(b,sweep). Zero \
           simulated-cycle overhead; any violation makes the exit status \
           non-zero.")

let with_heapcheck ~mode f =
  match mode with
  | None -> f ()
  | Some mode ->
      Heapcheck.enable ~abort:false ~mode ();
      Fun.protect
        ~finally:(fun () -> Heapcheck.disable ())
        (fun () ->
          let r = f () in
          print_newline ();
          print_string (Heapcheck.report ());
          if Heapcheck.violation_count () > 0 then exit 3;
          r)

let run_analysis samples lockcheck =
  with_lockcheck ~enabled:lockcheck (fun () ->
      Experiments.Analysis.print (Experiments.Analysis.run ~samples ()))

let analysis_cmd =
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~doc:"Operations to trace.")
  in
  Cmd.v
    (Cmd.info "analysis"
       ~doc:
         "allocb/freeb access-cost profile on the old allocator (E1); \
          $(b,--lockcheck) validates the synchronization discipline (E9).")
    Term.(const run_analysis $ samples $ lockcheck_flag)

(* Shared --flight-recorder plumbing: install a recorder around a
   workload run and print the report afterwards.  Recording is
   host-side, so the run's simulated cycle counts are unchanged. *)
let flightrec_flag =
  Arg.(
    value & flag
    & info [ "flight-recorder" ]
        ~doc:
          "Record a per-CPU event trace (allocator layers, spinlocks, VM \
           system) and print the flight-recorder report after the run. \
           Zero simulated-cycle overhead.")

let with_flightrec ~enabled ~ncpus f =
  if not enabled then f ()
  else begin
    let fr = Flightrec.Recorder.create ~ncpus () in
    Flightrec.Recorder.install fr;
    Fun.protect
      ~finally:(fun () -> Flightrec.Recorder.uninstall ())
      (fun () ->
        let r = f () in
        print_newline ();
        print_string (Flightrec.Report.to_string fr);
        r)
  end

(* The flight recorder and lockcheck keep host-GLOBAL state (one
   installed recorder, one lock graph), so runs with either enabled are
   serialized onto the calling domain; heapcheck state is domain-local
   with a shard/absorb merge, so it composes with any job count.  See
   DESIGN.md "Concurrency invariants". *)
let effective_jobs ~flightrec ~lockcheck jobs =
  if (flightrec || lockcheck) && jobs > 1 then begin
    prerr_endline
      "kma_bench: note: --flight-recorder/--lockcheck keep host-global \
       state; forcing --jobs 1 (heapcheck shards and is unaffected)";
    1
  end
  else jobs

(* All three checkers around one run, outermost first: heapcheck's exit
   status wraps the lockcheck report, which wraps the recorder's. *)
let with_checkers ~heapcheck ~lockcheck ~flightrec ~ncpus f =
  with_heapcheck ~mode:heapcheck (fun () ->
      with_lockcheck ~enabled:lockcheck (fun () ->
          with_flightrec ~enabled:flightrec ~ncpus f))

let missrates_cmd =
  let ncpus = Arg.(value & opt cpus_conv 4 & info [ "cpus" ] ~doc:"CPUs.") in
  let txs =
    Arg.(
      value & opt int 3000
      & info [ "transactions" ] ~doc:"Transactions per CPU.")
  in
  let run () ncpus txs flightrec lockcheck heapcheck =
    with_checkers ~heapcheck ~lockcheck ~flightrec ~ncpus (fun () ->
        let r = Experiments.Missrates.run ~ncpus ~transactions_per_cpu:txs () in
        Experiments.Missrates.print r;
        if not (Experiments.Missrates.within_bounds r) then
          print_endline "WARNING: a measured rate exceeded its analytic bound")
  in
  Cmd.v
    (Cmd.info "missrates"
       ~doc:
         "Per-layer miss rates under the DLM/OLTP workload (E6); \
          $(b,--flight-recorder) adds the time-resolved trace report; \
          $(b,--lockcheck) validates the synchronization discipline; \
          $(b,--heapcheck) verifies heap consistency after the run.")
    Term.(
      const run $ geometry_flag $ ncpus $ txs $ flightrec_flag
      $ lockcheck_flag $ heapcheck_flag)

let pressure_cmd =
  let ncpus = Arg.(value & opt cpus_conv 4 & info [ "cpus" ] ~doc:"CPUs.") in
  let rounds =
    Arg.(
      value & opt int 30
      & info [ "rounds" ] ~doc:"Alloc/free rounds per CPU.")
  in
  let batch =
    Arg.(value & opt int 120 & info [ "batch" ] ~doc:"Blocks per round.")
  in
  let rates =
    Arg.(
      value
      & opt rate_list_conv Experiments.Pressure.default_rates
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Grant-denial rates to sweep, each in [0, 1].")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fault-injection seed.")
  in
  let run ncpus rounds batch rates seed flightrec lockcheck heapcheck jobs =
    let jobs = effective_jobs ~flightrec ~lockcheck jobs in
    with_checkers ~heapcheck ~lockcheck ~flightrec ~ncpus (fun () ->
        let r =
          Experiments.Pressure.run ~jobs ~ncpus ~rounds ~batch ~rates ~seed ()
        in
        Experiments.Pressure.print r;
        let has x = List.exists (Float.equal x) rates in
        if has 0.0 && has 0.2 then begin
          print_newline ();
          if Experiments.Pressure.graceful r then
            print_endline
              "shape: graceful degradation at 20% denials (>= 50% \
               throughput, zero failures, reap returns pages) while mk \
               fails or hoards"
          else
            print_endline
              "WARNING: the E8 graceful-degradation shape did not hold"
        end)
  in
  Cmd.v
    (Cmd.info "pressure"
       ~doc:
         "Memory pressure: throughput and pages held vs VM grant-denial \
          rate, cookie/newkma (reap-and-retry, static targets) vs mk (E8); \
          $(b,--lockcheck) validates the synchronization discipline; \
          $(b,--heapcheck) verifies heap consistency after each cell.")
    Term.(
      const run $ ncpus $ rounds $ batch $ rates $ seed $ flightrec_flag
      $ lockcheck_flag $ heapcheck_flag $ jobs_flag)

let fuzz_cmd =
  let ops =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Trace length.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trace seed.") in
  let mode =
    Arg.(
      value
      & opt heapcheck_mode_conv Heapcheck.Paranoid
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Consistency-check cadence: $(b,paranoid) checks after every \
             op, $(b,sweep) every 64 ops.")
  in
  let pressure =
    Arg.(
      value & flag
      & info [ "pressure" ]
          ~doc:"Enable the memory-pressure subsystem (reap-and-retry).")
  in
  let debug =
    Arg.(
      value & flag
      & info [ "debug" ] ~doc:"Debug kernel (poisoned frees).")
  in
  let fault_rate =
    let rate_conv =
      let parse s =
        match float_of_string_opt s with
        | Some r -> check_rate r
        | None -> Error (`Msg (Printf.sprintf "invalid fault rate %S" s))
      in
      Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)
    in
    Arg.(
      value & opt rate_conv 0.
      & info [ "fault-rate" ]
          ~doc:
            "VM grant-denial rate armed by the trace's fault-injection \
             ops (0 removes those ops from the mix).")
  in
  let run ops seed mode pressure debug fault_rate =
    let check_every =
      match mode with Heapcheck.Paranoid -> 1 | Heapcheck.Sweep n -> n
    in
    let cfg =
      Heapcheck.Fuzz.config ~ops ~check_every ~pressure ~debug ~fault_rate
        ~seed ()
    in
    let o = Heapcheck.Fuzz.run cfg in
    Printf.printf
      "fuzz: seed %d, %d ops (%d allocs, %d frees), %d checks, %d cycles\n"
      seed ops o.Heapcheck.Fuzz.allocs o.Heapcheck.Fuzz.frees
      o.Heapcheck.Fuzz.checks o.Heapcheck.Fuzz.cycles;
    match o.Heapcheck.Fuzz.failure with
    | None -> print_endline "all consistency checks passed"
    | Some f ->
        Printf.printf "FAILED after op %d (%s):\n" f.Heapcheck.Fuzz.index
          (Format.asprintf "%a" Heapcheck.Fuzz.pp_op f.Heapcheck.Fuzz.op);
        List.iter
          (fun p -> print_endline ("  " ^ p))
          f.Heapcheck.Fuzz.problems;
        let minimized = Heapcheck.Fuzz.minimize cfg (Heapcheck.Fuzz.gen cfg) in
        Format.printf "minimized reproducer (%d ops):@.%a@."
          (List.length minimized) Heapcheck.Fuzz.pp_trace minimized;
        exit 3
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzz of the new allocator against a reference model \
          with full heap-consistency checking; prints a minimized \
          reproducer and exits non-zero on any violation.")
    Term.(const run $ ops $ seed $ mode $ pressure $ debug $ fault_rate)

let cyclic_cmd =
  let days = Arg.(value & opt int 3 & info [ "days" ] ~doc:"Day/night cycles.") in
  let run days =
    let r = Workload.Cyclic.run_kmem ~days () in
    Experiments.Series.heading "Cyclic day/night workload (new allocator)";
    Printf.printf
      "day allocs: %d\nnight large allocs: %d (failures: %d)\n\
       pages held after day: %d\npages held at night: %d\n"
      r.Workload.Cyclic.day_allocs r.Workload.Cyclic.night_allocs
      r.Workload.Cyclic.night_failures r.Workload.Cyclic.day_peak_pages
      r.Workload.Cyclic.night_pages
  in
  Cmd.v
    (Cmd.info "cyclic"
       ~doc:"Day/night workload: coalescing reuses day memory at night.")
    Term.(const run $ days)

let run_crosscpu roster pairs blocks jobs =
  Experiments.Series.heading "Producer/consumer flow through the global layer";
  let rows =
    Parallel.map ~jobs
      (fun which ->
        let r =
          Workload.Crosscpu.run ~which ~pairs ~blocks_per_pair:blocks ()
        in
        [
          Baseline.Allocator.name_of which;
          Experiments.Series.sci r.Workload.Crosscpu.transfers_per_sec;
        ])
      roster
  in
  Experiments.Series.table ~header:[ "allocator"; "transfers/s" ] rows

let crosscpu_cmd =
  let pairs =
    Arg.(value & opt int 2 & info [ "pairs" ] ~doc:"Producer/consumer pairs.")
  in
  let blocks =
    Arg.(
      value & opt int 2000
      & info [ "blocks" ] ~doc:"Blocks transferred per pair.")
  in
  Cmd.v
    (Cmd.info "crosscpu"
       ~doc:"Cross-CPU producer/consumer throughput (the global layer's job).")
    Term.(
      const
        (run_crosscpu
           (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ]))
      $ pairs $ blocks $ jobs_flag)

let trace_cmd =
  let ops =
    Arg.(value & opt int 3000 & info [ "ops" ] ~doc:"Trace length (events).")
  in
  let seed = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"Trace seed.") in
  let run ops seed =
    let t = Workload.Trace.synthesize ~ops ~seed () in
    (match Workload.Trace.validate t with
    | Ok () -> ()
    | Error e -> failwith ("synthesized trace invalid: " ^ e));
    Experiments.Series.heading
      (Printf.sprintf "Trace replay: %d events, seed %d, one CPU"
         (List.length t) seed);
    let rows =
      List.map
        (fun which ->
          let m =
            Sim.Machine.create (Workload.Rig.paper_config ~ncpus:1 ())
          in
          let a = Baseline.Allocator.create which m in
          let r = Workload.Trace.replay m t a in
          let cfg = Sim.Machine.config m in
          [
            Baseline.Allocator.name_of which;
            string_of_int r.Workload.Trace.failures;
            string_of_int r.Workload.Trace.skipped_frees;
            Experiments.Series.sci
              (float_of_int r.Workload.Trace.ops
              /. Sim.Config.seconds_of_cycles cfg r.Workload.Trace.cycles);
          ])
        (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ])
    in
    Experiments.Series.table
      ~header:[ "allocator"; "failures"; "skipped"; "ops/s" ]
      rows
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Synthesize an allocation trace and replay it bit-for-bit on every \
          allocator.")
    Term.(const run $ ops $ seed)

let scenario_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Scenario to replay ($(b,list) or omit to list the library).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Override the scenario's default seed.")
  in
  let scale =
    Arg.(
      value & opt float 1.
      & info [ "scale" ] ~docv:"K"
          ~doc:"Rate scaling: divide recorded inter-arrival gaps by $(docv).")
  in
  let cpus =
    Arg.(
      value
      & opt (some cpus_conv) None
      & info [ "cpus" ] ~docv:"N"
          ~doc:
            "Fan the trace out to $(docv) CPUs (must be a multiple of the \
             scenario's own CPU count; ids are remapped deterministically).")
  in
  let windows =
    Arg.(
      value & opt int 16
      & info [ "windows" ]
          ~doc:"Analysis windows (fragmentation samples) for --report.")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Replay under the flight recorder and print the full pathology \
             report instead of the one-line result.")
  in
  let list_library () =
    Experiments.Series.heading "Scenario library";
    Experiments.Series.table
      ~header:[ "name"; "cpus"; "seed"; "target pathology"; "summary" ]
      (List.map
         (fun (s : Scenario.t) ->
           [
             s.Scenario.name;
             string_of_int s.Scenario.ncpus;
             string_of_int s.Scenario.default_seed;
             Option.value s.Scenario.target ~default:"-";
             s.Scenario.summary;
           ])
         Scenario.all)
  in
  let whichs = allocs_flag ~default:[ Baseline.Allocator.Newkma ] in
  let run name seed scale cpus windows report whichs heapcheck =
    match name with
    | None | Some "list" -> list_library ()
    | Some n -> (
        match Scenario.find n with
        | None ->
            Printf.eprintf "unknown scenario %S (try: %s)\n" n
              (String.concat ", " (Scenario.names ()));
            exit 2
        | Some sc ->
            let seed = Option.value seed ~default:sc.Scenario.default_seed in
            let t = sc.Scenario.generate ~seed in
            let t =
              if scale = 1. then t else Workload.Trace.scale_rate ~factor:scale t
            in
            let t =
              match cpus with
              | None -> t
              | Some c ->
                  let base = max 1 (Workload.Trace.ncpus t) in
                  if c mod base <> 0 then begin
                    Printf.eprintf
                      "--cpus %d is not a multiple of the scenario's %d\n" c
                      base;
                    exit 2
                  end;
                  Workload.Trace.fan_out ~copies:(c / base) t
            in
            (match Workload.Trace.validate t with
            | Ok () -> ()
            | Error e -> failwith ("scenario trace invalid: " ^ e));
            let one which =
              (* With the default single-arm roster the label is the
                 bare scenario name, keeping the output byte-identical
                 to the pre---allocs driver. *)
              let label =
                if which = Baseline.Allocator.Newkma then n
                else
                  Printf.sprintf "%s[%s]" n
                    (Baseline.Allocator.name_of which)
              in
              if report then
                print_string
                  (Scenario.Pathology.to_string
                     (Scenario.Pathology.analyze ~windows ~which ~name:label t))
              else begin
                let ncpus = max 1 (Workload.Trace.ncpus t) in
                let cfg = Workload.Rig.paper_config ~ncpus () in
                let m = Sim.Machine.create cfg in
                let print_result r =
                  let cfg = Sim.Machine.config m in
                  Printf.printf
                    "scenario %s: seed %d, %d CPUs, %d events -> %d ops (%d \
                     failed, %d skipped frees) in %d cycles (%s ops/s)\n"
                    label seed ncpus (List.length t) r.Workload.Trace.ops
                    r.Workload.Trace.failures r.Workload.Trace.skipped_frees
                    r.Workload.Trace.cycles
                    (Experiments.Series.sci
                       (float_of_int r.Workload.Trace.ops
                       /. Sim.Config.seconds_of_cycles cfg
                            r.Workload.Trace.cycles))
                in
                match which with
                | Baseline.Allocator.Newkma ->
                    (* newkma booted by hand so --heapcheck can
                       checkpoint against the kmem handle after the
                       replay. *)
                    let kmem =
                      Kma.Kmem.create m
                        ~params:
                          (Kma.Params.auto
                             ~memory_words:cfg.Sim.Config.memory_words)
                        ()
                    in
                    let a =
                      {
                        Baseline.Allocator.name = "newkma";
                        alloc =
                          (fun ~bytes ->
                            match Kma.Kmem.try_alloc kmem ~bytes with
                            | Some addr -> addr
                            | None -> 0);
                        free =
                          (fun ~addr ~bytes -> Kma.Kmem.free kmem ~addr ~bytes);
                      }
                    in
                    let r = Workload.Trace.replay m t a in
                    Heapcheck.checkpoint kmem;
                    print_result r
                | w ->
                    let a, probe = Baseline.Allocator.create_probed w m in
                    let r = Workload.Trace.replay m t a in
                    print_result r;
                    (match probe.Baseline.Allocator.stats with
                    | Some st ->
                        Printf.printf "  probe: %s\n"
                          (Lockfree.Stats.to_string st)
                    | None -> ())
              end
            in
            with_heapcheck ~mode:heapcheck (fun () -> List.iter one whichs))
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Replay a library scenario (production-shaped multi-CPU trace), \
          optionally scaled with $(b,--scale) / $(b,--cpus); \
          $(b,--report) prints the pathology analysis with flight-recorder \
          evidence; $(b,--allocs) replays the same trace on other roster \
          arms (e.g. the lock-free pair) under the same detectors.")
    Term.(
      const run $ name_arg $ seed $ scale $ cpus $ windows $ report $ whichs
      $ heapcheck_flag)

let run_lockfree () whichs cpus iters bytes pairs blocks jobs =
  (* Both the best-case sweep and the storm drain-check every cell, so
     the handler covers the whole run, not just the first sweep. *)
  try
    let points =
      Experiments.Lockfree_arms.run ~jobs ~whichs ~cpus ~iters ~bytes ()
    in
    Experiments.Lockfree_arms.print_throughput points;
    Experiments.Lockfree_arms.print_retries points;
    Experiments.Lockfree_arms.print_crosscpu
      (Experiments.Lockfree_arms.run_crosscpu ~jobs ~whichs ~pairs
         ~blocks_per_pair:blocks ~bytes ());
    Experiments.Lockfree_arms.print_storm
      (Experiments.Lockfree_arms.run_storm ~jobs
         ~whichs:
           (List.filter
              (fun w -> List.mem w Baseline.Allocator.lockfree)
              whichs)
         ~cpus ())
  with Experiments.Lockfree_arms.Conservation msg ->
    Printf.eprintf "kma_bench lockfree: conservation violated: %s\n" msg;
    exit 3

let lockfree_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Lockfree_arms.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~doc:"Timed alloc/free pairs per CPU.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let whichs =
    allocs_flag ~default:Experiments.Lockfree_arms.default_whichs
  in
  let pairs =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Lockfree_arms.default_pairs
      & info [ "pairs" ]
          ~docv:"N,N,..."
          ~doc:
            "Producer/consumer pair counts for the remote-free companion \
             sweep (each pair is 2 CPUs).")
  in
  let blocks =
    Arg.(
      value & opt int 400
      & info [ "blocks" ] ~doc:"Blocks transferred per pair (remote sweep).")
  in
  Cmd.v
    (Cmd.info "lockfree"
       ~doc:
         "Lock-based vs lock-free head-to-head (E13): the Figure 7 \
          methodology over the non-blocking arms, with CAS-retry and \
          helping counters and a conservation check per cell.")
    Term.(
      const run_lockfree $ geometry_flag $ whichs $ cpus $ iters $ bytes $ pairs
      $ blocks $ jobs_flag)

let run_numa () whichs cpus nodes iters depth bytes jobs =
  Experiments.Numa.print ~depth
    (Experiments.Numa.run ~jobs ~whichs ~cpus ~nodes ~iters ~depth ~bytes ())

let numa_cmd =
  let node_list_conv =
    let parse s =
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match int_of_string_opt (String.trim p) with
            | Some n when n >= 1 -> go (n :: acc) rest
            | Some n ->
                Error
                  (`Msg (Printf.sprintf "node count %d out of range (>= 1)" n))
            | None -> Error (`Msg (Printf.sprintf "invalid node count %S" p)))
      in
      go [] parts
    in
    let print ppf l =
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
    in
    Arg.conv (parse, print)
  in
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Numa.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let nodes =
    Arg.(
      value
      & opt node_list_conv Experiments.Numa.default_nodes
      & info [ "nodes" ] ~docv:"N,N,..."
          ~doc:
            "NUMA node counts to sweep (1 = the flat baseline; node counts \
             exceeding a cell's CPU count are skipped).")
  in
  let iters =
    Arg.(
      value & opt int 12 & info [ "iters" ] ~doc:"Timed bursts per CPU.")
  in
  let depth =
    Arg.(
      value & opt int 64
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Burst size: blocks held live at once per CPU.  Keep it above \
             twice the per-CPU cache target or the global layer goes quiet \
             and the sweep measures nothing.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let whichs = allocs_flag ~default:Experiments.Numa.default_whichs in
  Cmd.v
    (Cmd.info "numa"
       ~doc:
         "NUMA scaling sweep (E14): global-layer churn at 128-512 CPUs \
          across 2-8 nodes, flat gblfree (newkma) vs per-node gblfree \
          (numakma).  $(b,--geometry) sets the base cost model (keys \
          nodes/node_miss/node_c2c price the cross-node surcharges); \
          $(b,--nodes) sweeps the machine's node count on top of it.")
    Term.(
      const run_numa $ geometry_flag $ whichs $ cpus $ nodes $ iters $ depth
      $ bytes $ jobs_flag)

let run_geometry () ncpus iters depth bytes jobs =
  Experiments.Geomsweep.print ~ncpus ~depth
    (Experiments.Geomsweep.run ~jobs ~ncpus ~iters ~depth ~bytes ())

let geometry_cmd =
  let ncpus =
    Arg.(value & opt cpus_conv 8 & info [ "cpus" ] ~doc:"CPUs per cell.")
  in
  let iters =
    Arg.(
      value & opt int 50
      & info [ "iters" ] ~doc:"Timed bursts per CPU per cell.")
  in
  let depth =
    Arg.(
      value & opt int 96
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Burst size: blocks held live at once per CPU.  The default \
             overflows the smaller geometries, which is what makes the \
             line-size axis informative.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  Cmd.v
    (Cmd.info "geometry"
       ~doc:
         "Cache-geometry sweep (E12): miss rate and cycles per \
          alloc/write/free pair vs line size and associativity, newkma vs \
          cookie.  $(b,--geometry) here sets the $(i,base) cost model the \
          sweep varies line size and associativity around.")
    Term.(
      const run_geometry $ geometry_flag $ ncpus $ iters $ depth $ bytes
      $ jobs_flag)

let service_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Scenario shape to serve ($(b,list) or omit to list the shapes).")
  in
  let arrival_conv =
    let parse s =
      if s = "closed" then Ok `Closed
      else
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "open" -> (
            let rest = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt rest with
            | Some m when m >= 1 -> Ok (`Open_ns m)
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "bad open-loop mean %S (want open:<mean-ns>, >= 1)" rest)))
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown arrival %S (valid: closed, open:<mean-ns>)" s))
    in
    let print ppf (a : Service.arrival) =
      Format.pp_print_string ppf
        (match a with
        | `Closed -> "closed"
        | `Open_ns m -> Printf.sprintf "open:%d" m)
    in
    Arg.conv (parse, print)
  in
  let pos_int what =
    let parse s =
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (`Msg (Printf.sprintf "bad %s %S (want an int >= 1)" what s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let domains =
    Arg.(
      value
      & opt (pos_int "domain count") 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains (default 2).")
  in
  let requests =
    Arg.(
      value
      & opt (pos_int "request count") 100_000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests served per domain (default 100000).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let refill =
    Arg.(
      value & flag
      & info [ "refill" ]
          ~doc:
            "Add a dedicated depot-refill domain (SpeedMalloc's allocation \
             core): workers never pay constructor cost in steady state.")
  in
  let target =
    Arg.(
      value
      & opt (pos_int "target") 16
      & info [ "target" ] ~doc:"Magazine target (batch size).")
  in
  let depot_batches =
    Arg.(
      value
      & opt (pos_int "depot bound") 32
      & info [ "depot-batches" ] ~doc:"Depot bound, in batches.")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv `Closed
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:
            "Request arrival: $(b,closed) (back-to-back) or \
             $(b,open:<mean-ns>) (seeded inter-arrival, latency measured \
             from the scheduled arrival).")
  in
  let obj_bytes =
    Arg.(
      value
      & opt (pos_int "object size") 256
      & info [ "obj-bytes" ] ~doc:"Pooled object size in bytes.")
  in
  let list_shapes () =
    Experiments.Series.heading "Service shapes (lib/scenario request graphs)";
    Experiments.Series.table
      ~header:[ "name"; "served as" ]
      (List.map
         (fun (s : Scenario.t) -> [ s.Scenario.name; s.Scenario.summary ])
         Scenario.all)
  in
  let run name domains requests seed refill target depot_batches arrival
      obj_bytes =
    match name with
    | None | Some "list" -> list_shapes ()
    | Some n -> (
        match Scenario.find n with
        | None ->
            Printf.eprintf "unknown scenario %S (try: %s)\n" n
              (String.concat ", " (Scenario.names ()));
            exit 2
        | Some _ ->
            let cfg =
              {
                (Service.default ~scenario:n) with
                Service.domains;
                requests;
                seed;
                refill;
                target;
                depot_batches;
                arrival;
                obj_bytes;
              }
            in
            print_string (Service.to_string (Service.run cfg)))
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Serve a production-shaped request load through the native \
          per-domain pool (lib/service): multi-domain workers, cross-domain \
          frees, p50/p99/p999 request latency, and depot-contention \
          accounting (E15).")
    Term.(
      const run $ name_arg $ domains $ requests $ seed $ refill
      $ target $ depot_batches $ arrival $ obj_bytes)

(* --- bench: the full harness, every paper artifact at a scale that
   completes in a few minutes, plus the ablations called out in
   DESIGN.md and the native-pool sections.  Sections that match a
   subcommand call its run function at bench scale. --- *)

(* Host-side wall clock for section timing: monotonic, so NTP steps or
   host clock slews can never produce negative or skewed section times
   (Unix.gettimeofday is wall time and can move backwards). *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* What the bench flags hand every section; [jobs] already obeys
   [effective_jobs]. *)
type bench_ctx = {
  jobs : int;
  lockcheck : bool;
  flightrec : bool;
  heapcheck : Heapcheck.mode option;
  allocs : Baseline.Allocator.which list;
}

(* A section's acceptance line, once printed, decides its exit status:
   a false self-check exits 3, like a failed checker. *)
let exit_unless ok = if not ok then exit 3

(* --- E3/E4: Figures 7 and 8 --- *)

let bench_fig7 c =
  let points =
    Experiments.Fig7.run ~jobs:c.jobs ~cpus:[ 1; 2; 4; 8; 12; 16; 20; 25 ]
      ~iters:400 ()
  in
  Experiments.Fig7.print_linear points;
  Experiments.Fig7.print_semilog points;
  let open Baseline.Allocator in
  Printf.printf "\ncookie speedup: %s\n"
    (String.concat ", "
       (List.map
          (fun (n, s) -> Printf.sprintf "%dcpu=%.1fx" n s)
          (Experiments.Fig7.speedup points ~which:Cookie)));
  Printf.printf "single-CPU cookie/oldkma: %.1fx (paper: 15x)\n"
    (Experiments.Fig7.single_cpu_ratio points ~num:Cookie ~den:Oldkma);
  let at n w =
    match
      List.find_opt
        (fun p -> p.Experiments.Fig7.which = w && p.Experiments.Fig7.ncpus = n)
        points
    with
    | Some p -> p.Experiments.Fig7.pairs_per_sec
    | None -> Float.nan
  in
  Printf.printf "25-CPU cookie/oldkma: %.0fx (paper: >1000x)\n"
    (at 25 Cookie /. at 25 Oldkma)

(* --- E5: Figure 9 --- *)

let bench_fig9 c =
  (* Each Fig9 sweep runs every size on ONE machine (cache warmth
     carries from size to size), so the per-size cells are not
     independent; the two allocator sweeps are, and fan out. *)
  let results, mk =
    match
      Parallel.map ~jobs:c.jobs
        (fun which -> Experiments.Fig9.run ?which ~memory_words:(256 * 1024) ())
        [ None; Some Baseline.Allocator.Mk ]
    with
    | [ results; mk ] -> (results, mk)
    | _ -> assert false
  in
  Experiments.Fig9.print results;
  let completed = Experiments.Fig9.completed results in
  Printf.printf "sweep completed without wedging: %b\n" completed;
  (* The paper's side claim: an allocator without coalescing cannot
     complete this benchmark. *)
  let wedged = List.filter (fun r -> r.Workload.Worstcase.blocks <= 10) mk in
  Printf.printf
    "mk (no coalescing) wedged on %d of %d sizes, as the paper predicts\n"
    (List.length wedged) (List.length mk);
  exit_unless completed

(* --- E6: DLM miss rates --- *)

let bench_missrates c =
  exit_unless
    (with_checkers ~heapcheck:c.heapcheck ~lockcheck:c.lockcheck
       ~flightrec:c.flightrec ~ncpus:4 (fun () ->
         let r = Experiments.Missrates.run ~transactions_per_cpu:2000 () in
         Experiments.Missrates.print r;
         let ok = Experiments.Missrates.within_bounds r in
         Printf.printf "all rates within analytic bounds: %b\n" ok;
         ok))

(* --- E8: memory pressure --- *)

let bench_pressure c =
  exit_unless
    (with_checkers ~heapcheck:c.heapcheck ~lockcheck:c.lockcheck
       ~flightrec:c.flightrec ~ncpus:4 (fun () ->
         let r = Experiments.Pressure.run ~jobs:c.jobs () in
         Experiments.Pressure.print r;
         let ok = Experiments.Pressure.graceful r in
         Printf.printf "\ngraceful degradation at 20%% denials: %b\n" ok;
         ok))

(* --- Fuzz: differential fuzz of the new allocator (lib/heapcheck) --- *)

let bench_fuzz c =
  Experiments.Series.heading
    "Differential fuzz vs reference model (heap invariants)";
  let matrix =
    [
      ("paranoid", Heapcheck.Fuzz.config ~ops:1500 ~seed:21 ());
      ( "pressure + faults",
        Heapcheck.Fuzz.config ~ops:1500 ~seed:22 ~pressure:true
          ~fault_rate:0.3 () );
      ( "debug kernel, sweep",
        Heapcheck.Fuzz.config ~ops:1500 ~seed:23 ~debug:true ~check_every:32
          () );
    ]
  in
  let outcomes =
    Heapcheck.Fuzz.run_matrix ~jobs:c.jobs (List.map snd matrix)
  in
  let failed = ref false in
  List.iter2
    (fun (name, _) (o : Heapcheck.Fuzz.outcome) ->
      Printf.printf "%-28s %5d checks  %5d allocs  %5d frees  %s\n" name
        o.Heapcheck.Fuzz.checks o.Heapcheck.Fuzz.allocs o.Heapcheck.Fuzz.frees
        (match o.Heapcheck.Fuzz.failure with
        | None -> "ok"
        | Some f -> Printf.sprintf "FAILED at op %d" f.Heapcheck.Fuzz.index);
      if o.Heapcheck.Fuzz.failure <> None then failed := true)
    matrix outcomes;
  if !failed then exit 3

(* --- Ablation A: the target parameter --- *)

let bench_ablation_target c =
  Experiments.Series.heading
    "Ablation: per-CPU target (1 = no batching, the paper's free-singly \
     strawman)";
  let rows =
    Parallel.map ~jobs:c.jobs
      (fun target ->
        let cfg = Workload.Rig.paper_config ~ncpus:4 () in
        let m = Sim.Machine.create cfg in
        let params =
          let base =
            Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words
          in
          Kma.Params.make ~vmblk_pages:base.Kma.Params.vmblk_pages
            ~targets:(Array.make 9 target)
            ~gbltargets:(Array.make 9 (Kma.Params.default_gbltarget ~target))
            ()
        in
        let kmem = Kma.Kmem.create m ~params () in
        let r = Dlm.Oltp.run ~kmem ~ncpus:4 ~transactions_per_cpu:800 () in
        let stats = Kma.Kmem.stats kmem in
        (* 64-byte class carries the note + resource traffic. *)
        let si = 2 in
        [
          string_of_int target;
          Experiments.Series.pct (Kma.Kstats.percpu_alloc_miss_rate stats ~si);
          Experiments.Series.pct
            (Kma.Kstats.combined_alloc_miss_rate stats ~si);
          Experiments.Series.sci
            (float_of_int r.Dlm.Oltp.transactions
            /. Sim.Config.seconds_of_cycles cfg r.Dlm.Oltp.cycles);
        ])
      [ 1; 2; 5; 10; 20 ]
  in
  Experiments.Series.table
    ~header:[ "target"; "pcpu miss (64B)"; "combined miss"; "tx/s" ]
    rows;
  print_endline
    "expected: miss rates fall roughly as 1/target; throughput rises then \
     flattens"

(* --- Ablation B: radix page order vs emptiest-first --- *)

let bench_ablation_page_policy c =
  Experiments.Series.heading "Ablation: coalesce-to-page selection policy";
  (* Steady churn on one size class: repeatedly free a random fraction
     of the live set and allocate back a bit less, with a tiny per-CPU
     cache so traffic reaches the page layer.  The radix order
     (fullest-first) concentrates allocations in full pages, letting
     sparse pages drain to the VM system; the emptiest-first strawman
     keeps refilling the sparse pages. *)
  let churn policy =
    let cfg =
      Workload.Rig.paper_config ~ncpus:1 ~memory_words:(1024 * 1024) ()
    in
    let m = Sim.Machine.create cfg in
    let params =
      let base = Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words in
      Kma.Params.make ~vmblk_pages:base.Kma.Params.vmblk_pages
        ~targets:(Array.make 9 2) ~gbltargets:(Array.make 9 2)
        ~page_policy:policy ()
    in
    let kmem = Kma.Kmem.create m ~params () in
    let rng = Workload.Prng.create ~seed:3 in
    let bytes = 256 in
    let final = ref (0, 0, 0) in
    Sim.Machine.run m
      [|
        (fun _ ->
          let live = ref [] in
          let nlive = ref 0 in
          let alloc_n n =
            for _ = 1 to n do
              match Kma.Kmem.try_alloc kmem ~bytes with
              | Some a ->
                  live := a :: !live;
                  incr nlive
              | None -> ()
            done
          in
          let free_frac pct =
            let keep = ref [] in
            let freed = ref 0 in
            List.iter
              (fun a ->
                if Workload.Prng.int rng ~bound:100 < pct then begin
                  Kma.Kmem.free kmem ~addr:a ~bytes;
                  decr nlive;
                  incr freed
                end
                else keep := a :: !keep)
              !live;
            live := !keep;
            !freed
          in
          alloc_n 600;
          for _round = 1 to 30 do
            let freed = free_frac 30 in
            (* Allocate back slightly less, so sparse pages have a
               chance to drain while the live set stays large. *)
            alloc_n (freed * 5 / 6)
          done;
          let st = Kma.Kmem.stats kmem in
          let si = 4 in
          final :=
            ( Kma.Kmem.granted_pages_oracle kmem,
              (Kma.Kstats.size st si).Kma.Kstats.pages_returned,
              !nlive ));
      |];
    !final
  in
  let (f_pages, f_ret, f_live), (e_pages, e_ret, e_live) =
    match
      Parallel.map ~jobs:c.jobs churn
        [ Kma.Params.Fullest_first; Kma.Params.Emptiest_first ]
    with
    | [ f; e ] -> (f, e)
    | _ -> assert false
  in
  Experiments.Series.table
    ~header:[ "policy"; "live blocks"; "pages held"; "pages recycled" ]
    [
      [ "fullest-first (paper)"; string_of_int f_live; string_of_int f_pages;
        string_of_int f_ret ];
      [ "emptiest-first"; string_of_int e_live; string_of_int e_pages;
        string_of_int e_ret ];
    ];
  print_endline
    "expected: same live data, but fullest-first holds it in fewer pages \
     and recycles more"

(* --- Roads not taken: the watermark lazy buddy --- *)

let bench_roads_not_taken c =
  Experiments.Series.heading
    "Roads not taken: Lee-Barkley lazy buddy (global lock, per-op \
     shared-state traffic)";
  let open Baseline.Allocator in
  let points =
    Experiments.Fig7.run ~jobs:c.jobs ~whichs:[ Cookie; Newkma; Lazybuddy ]
      ~cpus:[ 1; 2; 4; 8 ] ~iters:400 ()
  in
  Experiments.Fig7.print_linear points;
  print_endline
    "the lazy buddy is fast on one CPU (lazy frees skip the bitmap) but, as \
     the paper argues, its global synchronization keeps it from scaling";
  (* It does coalesce, though: the worst-case sweep completes. *)
  let sweep =
    Experiments.Fig9.run ~which:Lazybuddy ~memory_words:(256 * 1024) ()
  in
  let completed = Experiments.Fig9.completed sweep in
  Printf.printf "lazy buddy completes the worst-case sweep: %b\n" completed;
  exit_unless completed

(* --- E7: native pool vs a single-mutex pool, alone and contended
   (informational on 1-core hosts) --- *)

let bench_pool_domains _ =
  Experiments.Series.heading
    "Native pool vs locked pool, one domain and under domain contention";
  let ndomains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let ops = 1_000_000 in
  (* Host seconds for [n] domains, this one included, each running
     [worker] once. *)
  let timed n worker =
    let t0 = now_s () in
    let ds = List.init (n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join ds;
    now_s () -. t0
  in
  let pooled n =
    let p =
      Objpool.Pool.create ~ctor:(fun () -> Bytes.create 512) ~target:32 ()
    in
    timed n (fun () ->
        for _ = 1 to ops do
          Objpool.Pool.release p (Objpool.Pool.alloc p)
        done;
        Objpool.Pool.flush_local p)
  in
  let locked n =
    let p = Objpool.Locked_pool.create ~ctor:(fun () -> Bytes.create 512) () in
    timed n (fun () ->
        for _ = 1 to ops do
          Objpool.Locked_pool.release p (Objpool.Locked_pool.alloc p)
        done)
  in
  let row name time n =
    let rate = float_of_int (n * ops) /. time n /. 1e6 in
    [ name; string_of_int n; Experiments.Series.f1 rate ]
  in
  Experiments.Series.table
    ~header:[ "pool"; "domains"; "M ops/s" ]
    (List.concat_map
       (fun n ->
         [ row "per-domain magazines" pooled n; row "single mutex" locked n ])
       [ 1; ndomains ]);
  if Domain.recommended_domain_count () < 2 then
    print_endline
      "note: this host has one core, so contention effects are muted (the \
       simulated-machine figures above are the scaling result)"

(* --- Scenario library: trace replays + pathology highlights --- *)

let bench_scenarios c =
  Experiments.Series.heading
    "Scenario library (trace replays on the new allocator)";
  Experiments.Scenarios.print (Experiments.Scenarios.run ~jobs:c.jobs ());
  (* Pathology analysis replays under the one installed flight
     recorder, so it runs serially; it is the bench-level proof that
     each scenario's target detector fires. *)
  print_newline ();
  Experiments.Scenarios.print_highlights ()

(* --- E15: serving traffic through the pool (lib/service) --- *)

(* Unlike the simulated tables, everything here is real hardware
   timing. *)
let bench_service _ =
  Experiments.Series.heading "Serving traffic through the native pool (E15)";
  let serve ?(refill = false) scenario ~domains ~requests =
    let cfg =
      { (Service.default ~scenario) with Service.domains; requests; refill }
    in
    print_string (Service.to_string (Service.run cfg));
    print_newline ()
  in
  (* A steady closed loop, plus the SpeedMalloc dedicated-refill-domain
     arm on the same load (prefills > 0 proves the stocker ran). *)
  serve "steady" ~domains:2 ~requests:125_000;
  serve "steady" ~domains:2 ~requests:125_000 ~refill:true;
  (* Cross-domain producer/consumer flow, where every object is freed
     on a different domain than its alloc. *)
  serve "producer_consumer" ~domains:4 ~requests:150_000

(* Every section in run order, with its body. *)
let sections =
  [
    ("analysis", fun c -> run_analysis 150 c.lockcheck);
    ("opcounts", fun c -> run_opcounts c.jobs);
    ("fig7", bench_fig7);
    ("fig9", bench_fig9);
    ("missrates", bench_missrates);
    (* ncpus, iters, depth, bytes *)
    ("geometry", fun c -> run_geometry () 8 50 96 256 c.jobs);
    ("ablation-target", bench_ablation_target);
    ("ablation-pagepolicy", bench_ablation_page_policy);
    ("crosscpu", fun c -> run_crosscpu Baseline.Allocator.all 2 2000 c.jobs);
    (* cpus, iters, bytes, pairs, blocks per pair *)
    ( "lockfree",
      fun c ->
        run_lockfree () c.allocs [ 1; 2; 4; 8; 16; 26 ] 400 256 [ 1; 2; 4; 8 ]
          300 c.jobs );
    (* cpus, nodes, iters, depth, bytes *)
    ( "numa",
      fun c ->
        run_numa () Experiments.Numa.default_whichs [ 32; 64; 128 ] [ 1; 4 ] 8
          64 256 c.jobs );
    ("scenarios", bench_scenarios);
    ("roads-not-taken", bench_roads_not_taken);
    ("pool-domains", bench_pool_domains);
    ("service", bench_service);
    ("pressure", bench_pressure);
    ("fuzz", bench_fuzz);
  ]

let bench_cmd =
  let requested =
    Arg.(
      value
      & pos_all (enum (List.map (fun ((name, _) as s) -> (name, s)) sections))
          []
      & info [] ~docv:"SECTION"
          ~doc:"Sections to run, in order (default: all of them).")
  in
  let allocs = allocs_flag ~default:Experiments.Lockfree_arms.default_whichs in
  let run () requested jobs allocs lockcheck heapcheck flightrec =
    let c =
      {
        jobs = effective_jobs ~flightrec ~lockcheck jobs;
        lockcheck;
        flightrec;
        heapcheck;
        allocs;
      }
    in
    List.iter
      (fun (_, f) ->
        let t0 = now_s () in
        f c;
        Printf.printf "(section took %.1fs of host time)\n" (now_s () -. t0))
      (match requested with [] -> sections | l -> l);
    print_newline ();
    print_endline "bench: all requested sections completed"
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "The full harness: every table and figure at a scale that \
          completes in a few minutes, the ablations, and the native-pool \
          sections, each followed by its host time.  $(b,--allocs) selects \
          the lockfree section's arms; the checker flags apply to analysis \
          ($(b,--lockcheck)), missrates and pressure.")
    Term.(
      const run $ geometry_flag $ requested $ jobs_flag $ allocs
      $ lockcheck_flag $ heapcheck_flag $ flightrec_flag)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  (* KMA_GEOMETRY first, so an explicit --geometry flag wins. *)
  (match Sim.Geometry.of_env () with
  | Ok g -> Sim.Geometry.set_ambient g
  | Error msg ->
      Printf.eprintf "kma_bench: bad %s: %s\n" Sim.Geometry.env_var msg;
      exit 2);
  let info =
    Cmd.info "kma_bench" ~version:"1.0"
      ~doc:
        "Reproduces the tables and figures of McKenney & Slingwine, USENIX \
         Winter 1993."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            fig7_cmd; fig8_cmd; fig9_cmd; opcounts_cmd; analysis_cmd;
            missrates_cmd; geometry_cmd; numa_cmd; lockfree_cmd;
            pressure_cmd; fuzz_cmd; cyclic_cmd; crosscpu_cmd; trace_cmd;
            scenario_cmd; service_cmd; bench_cmd;
          ]))
