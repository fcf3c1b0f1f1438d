(* The full benchmark harness: regenerates every table and figure of
   McKenney & Slingwine (USENIX Winter 1993) at a scale that completes
   in a few minutes, runs the ablations called out in DESIGN.md, and
   finishes with a Bechamel microbenchmark suite for the native
   per-domain pool.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig7 ...  # only the named sections

   Larger, slower runs of individual experiments: bin/kma_bench.exe. *)

let section name = Experiments.Series.heading name

(* Host-side wall clock for section timing: monotonic, so NTP steps or
   host clock slews can never produce negative or skewed section times
   (Unix.gettimeofday is wall time and can move backwards). *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let wall f =
  let t0 = now_s () in
  let r = f () in
  Printf.printf "(section took %.1fs of host time)\n" (now_s () -. t0);
  r

(* --- the domain-parallel job pool (--jobs) --- *)

let jobs = ref (Parallel.default_jobs ())

(* Set by the --lockcheck command-line flag: sections that exercise the
   allocators validate the synchronization discipline (lock order, irq
   discipline, locks across VM calls) and print the lockcheck report.
   Host-side, zero simulated-cycle cost, like the flight recorder. *)
let lockcheck_enabled = ref false

(* Set by the --flight-recorder command-line flag: sections that run the
   DLM workload record a per-CPU event trace and print the
   flight-recorder report (host-side, zero simulated-cycle cost). *)
let flightrec_enabled = ref false

let with_lockcheck f =
  if not !lockcheck_enabled then f ()
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

(* Set by the --heapcheck command-line flag: sections with a quiescent
   point sweep the allocator's heap invariants (freelist counts,
   page-descriptor tiling, conservation) and print the heapcheck
   report.  Host-side, zero simulated-cycle cost; any violation fails
   the run. *)
let heapcheck_enabled = ref false

(* The flight recorder and lockcheck keep host-GLOBAL state (one
   installed recorder, one lock graph), so sections running with those
   checkers enabled are serialized onto the calling domain; heapcheck
   state is domain-local with a shard/absorb merge, so it composes
   with any job count.  See DESIGN.md "Concurrency invariants". *)
let effective_jobs () =
  if !flightrec_enabled || !lockcheck_enabled then 1 else !jobs

let with_heapcheck f =
  if not !heapcheck_enabled then f ()
  else begin
    Heapcheck.enable ~abort:false ();
    Fun.protect
      ~finally:(fun () -> Heapcheck.disable ())
      (fun () ->
        let r = f () in
        print_newline ();
        print_string (Heapcheck.report ());
        if Heapcheck.violation_count () > 0 then exit 1;
        r)
  end

(* --- E1: the Analysis section's allocb/freeb profile --- *)

let bench_analysis () =
  wall (fun () ->
      with_lockcheck (fun () ->
          Experiments.Analysis.print
            (Experiments.Analysis.run ~samples:150 ())))

(* --- E2: instruction counts --- *)

let bench_opcounts () =
  wall (fun () ->
      Experiments.Opcounts.print
        (Experiments.Opcounts.run ~jobs:(effective_jobs ()) ()))

(* --- E3/E4: Figures 7 and 8 --- *)

let bench_fig7 () =
  wall (fun () ->
      let points =
        Experiments.Fig7.run ~jobs:(effective_jobs ())
          ~cpus:[ 1; 2; 4; 8; 12; 16; 20; 25 ] ~iters:400 ()
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
            (fun p ->
              p.Experiments.Fig7.which = w && p.Experiments.Fig7.ncpus = n)
            points
        with
        | Some p -> p.Experiments.Fig7.pairs_per_sec
        | None -> Float.nan
      in
      Printf.printf "25-CPU cookie/oldkma: %.0fx (paper: >1000x)\n"
        (at 25 Cookie /. at 25 Oldkma))

(* --- E5: Figure 9 --- *)

let bench_fig9 () =
  wall (fun () ->
      (* Each Fig9 sweep runs every size on ONE machine (cache warmth
         carries from size to size), so the per-size cells are not
         independent; the two allocator sweeps are, and fan out. *)
      let results, mk =
        match
          Parallel.map ~jobs:(effective_jobs ())
            (fun which ->
              Experiments.Fig9.run ?which ~memory_words:(256 * 1024) ())
            [ None; Some Baseline.Allocator.Mk ]
        with
        | [ results; mk ] -> (results, mk)
        | _ -> assert false
      in
      Experiments.Fig9.print results;
      Printf.printf "sweep completed without wedging: %b\n"
        (Experiments.Fig9.completed results);
      (* The paper's side claim: an allocator without coalescing cannot
         complete this benchmark. *)
      let wedged =
        List.filter (fun r -> r.Workload.Worstcase.blocks <= 10) mk
      in
      Printf.printf
        "mk (no coalescing) wedged on %d of %d sizes, as the paper \
         predicts\n"
        (List.length wedged) (List.length mk))

(* --- E6: DLM miss rates --- *)

let with_flightrec ~ncpus f =
  if not !flightrec_enabled then f ()
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

let bench_missrates () =
  wall (fun () ->
      with_heapcheck (fun () ->
      with_lockcheck (fun () ->
          with_flightrec ~ncpus:4 (fun () ->
              let r =
                Experiments.Missrates.run ~transactions_per_cpu:2000 ()
              in
              Experiments.Missrates.print r;
              Printf.printf "all rates within analytic bounds: %b\n"
                (Experiments.Missrates.within_bounds r)))))

(* --- E8: memory pressure --- *)

let bench_pressure () =
  wall (fun () ->
      with_heapcheck (fun () ->
      with_lockcheck (fun () ->
          with_flightrec ~ncpus:4 (fun () ->
              let r = Experiments.Pressure.run ~jobs:(effective_jobs ()) () in
              Experiments.Pressure.print r;
              Printf.printf "\ngraceful degradation at 20%% denials: %b\n"
                (Experiments.Pressure.graceful r)))))

(* --- Fuzz: differential fuzz of the new allocator (lib/heapcheck) --- *)

let bench_fuzz () =
  wall (fun () ->
      section "Differential fuzz vs reference model (heap invariants)";
      let matrix =
        [
          ("paranoid", Heapcheck.Fuzz.config ~ops:1500 ~seed:21 ());
          ( "pressure + faults",
            Heapcheck.Fuzz.config ~ops:1500 ~seed:22 ~pressure:true
              ~fault_rate:0.3 () );
          ( "debug kernel, sweep",
            Heapcheck.Fuzz.config ~ops:1500 ~seed:23 ~debug:true
              ~check_every:32 () );
        ]
      in
      let outcomes =
        Heapcheck.Fuzz.run_matrix ~jobs:(effective_jobs ())
          (List.map snd matrix)
      in
      let failed = ref false in
      List.iter2
        (fun (name, _) (o : Heapcheck.Fuzz.outcome) ->
          Printf.printf "%-28s %5d checks  %5d allocs  %5d frees  %s\n" name
            o.Heapcheck.Fuzz.checks o.Heapcheck.Fuzz.allocs
            o.Heapcheck.Fuzz.frees
            (match o.Heapcheck.Fuzz.failure with
            | None -> "ok"
            | Some f ->
                Printf.sprintf "FAILED at op %d" f.Heapcheck.Fuzz.index);
          if o.Heapcheck.Fuzz.failure <> None then failed := true)
        matrix outcomes;
      if !failed then exit 1)

(* --- Smoke: a tiny recorded DLM run for dune's @runtest-smoke --- *)

let bench_smoke () =
  wall (fun () ->
      section "Smoke: DLM workload with the flight recorder and lockcheck";
      let saved_fr = !flightrec_enabled and saved_lc = !lockcheck_enabled in
      flightrec_enabled := true;
      lockcheck_enabled := true;
      Fun.protect
        ~finally:(fun () ->
          flightrec_enabled := saved_fr;
          lockcheck_enabled := saved_lc)
        (fun () ->
          with_lockcheck (fun () ->
              with_flightrec ~ncpus:2 (fun () ->
                  let r =
                    Experiments.Missrates.run ~ncpus:2
                      ~transactions_per_cpu:150 ()
                  in
                  Experiments.Missrates.print r))))

(* --- Ablation A: the target parameter --- *)

let bench_ablation_target () =
  wall (fun () ->
      section
        "Ablation: per-CPU target (1 = no batching, the paper's \
         free-singly strawman)";
      let rows =
        Parallel.map ~jobs:(effective_jobs ())
          (fun target ->
            let cfg = Workload.Rig.paper_config ~ncpus:4 () in
            let m = Sim.Machine.create cfg in
            let params =
              let base =
                Kma.Params.auto
                  ~memory_words:cfg.Sim.Config.memory_words
              in
              Kma.Params.make ~vmblk_pages:base.Kma.Params.vmblk_pages
                ~targets:(Array.make 9 target)
                ~gbltargets:
                  (Array.make 9 (Kma.Params.default_gbltarget ~target))
                ()
            in
            let kmem = Kma.Kmem.create m ~params () in
            let r =
              Dlm.Oltp.run ~kmem ~ncpus:4 ~transactions_per_cpu:800 ()
            in
            let stats = Kma.Kmem.stats kmem in
            (* 64-byte class carries the note + resource traffic. *)
            let si = 2 in
            [
              string_of_int target;
              Experiments.Series.pct
                (Kma.Kstats.percpu_alloc_miss_rate stats ~si);
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
        "expected: miss rates fall roughly as 1/target; throughput rises \
         then flattens")

(* --- Ablation B: radix page order vs emptiest-first --- *)

let bench_ablation_page_policy () =
  wall (fun () ->
      section "Ablation: coalesce-to-page selection policy";
      (* Steady churn on one size class: repeatedly free a random
         fraction of the live set and allocate back a bit less, with a
         tiny per-CPU cache so traffic reaches the page layer.  The
         radix order (fullest-first) concentrates allocations in full
         pages, letting sparse pages drain to the VM system; the
         emptiest-first strawman keeps refilling the sparse pages. *)
      let churn policy =
        let cfg =
          Workload.Rig.paper_config ~ncpus:1 ~memory_words:(1024 * 1024) ()
        in
        let m = Sim.Machine.create cfg in
        let params =
          let base =
            Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words
          in
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
          Parallel.map ~jobs:(effective_jobs ()) churn
            [ Kma.Params.Fullest_first; Kma.Params.Emptiest_first ]
        with
        | [ f; e ] -> (f, e)
        | _ -> assert false
      in
      Experiments.Series.table
        ~header:
          [ "policy"; "live blocks"; "pages held"; "pages recycled" ]
        [
          [ "fullest-first (paper)"; string_of_int f_live;
            string_of_int f_pages; string_of_int f_ret ];
          [ "emptiest-first"; string_of_int e_live; string_of_int e_pages;
            string_of_int e_ret ];
        ];
      print_endline
        "expected: same live data, but fullest-first holds it in fewer \
         pages and recycles more")

(* --- Cross-CPU flow: what the global layer buys --- *)

let bench_crosscpu () =
  wall (fun () ->
      section "Producer/consumer flow through the global layer";
      let rows =
        Parallel.map ~jobs:(effective_jobs ())
          (fun which ->
            let r =
              Workload.Crosscpu.run ~which ~pairs:2 ~blocks_per_pair:2000 ()
            in
            [
              Baseline.Allocator.name_of which;
              Experiments.Series.sci r.Workload.Crosscpu.transfers_per_sec;
            ])
          Baseline.Allocator.[ Cookie; Newkma; Mk; Oldkma ]
      in
      Experiments.Series.table ~header:[ "allocator"; "transfers/s" ] rows)

(* --- Roads not taken: the watermark lazy buddy --- *)

let bench_roads_not_taken () =
  wall (fun () ->
      section
        "Roads not taken: Lee-Barkley lazy buddy (global lock, per-op \
         shared-state traffic)";
      let open Baseline.Allocator in
      let points =
        Experiments.Fig7.run ~jobs:(effective_jobs ())
          ~whichs:[ Cookie; Newkma; Lazybuddy ]
          ~cpus:[ 1; 2; 4; 8 ] ~iters:400 ()
      in
      Experiments.Fig7.print_linear points;
      print_endline
        "the lazy buddy is fast on one CPU (lazy frees skip the bitmap) \
         but, as the paper argues, its global synchronization keeps it \
         from scaling";
      (* It does coalesce, though: the worst-case sweep completes. *)
      let sweep =
        Experiments.Fig9.run ~which:Lazybuddy ~memory_words:(256 * 1024) ()
      in
      Printf.printf "lazy buddy completes the worst-case sweep: %b\n"
        (Experiments.Fig9.completed sweep))

(* --- Native pool: Bechamel microbenchmarks --- *)

let bechamel_suite () =
  section "Native OCaml 5 pool (Bechamel, ns/op, single domain)";
  let open Bechamel in
  let pooled =
    Objpool.Pool.create ~ctor:(fun () -> Bytes.create 4096) ~target:16 ()
  in
  let locked =
    Objpool.Locked_pool.create ~ctor:(fun () -> Bytes.create 4096) ()
  in
  (* Warm both so steady state is measured. *)
  Objpool.Pool.release pooled (Objpool.Pool.alloc pooled);
  Objpool.Locked_pool.release locked (Objpool.Locked_pool.alloc locked);
  let tests =
    Test.make_grouped ~name:"pool"
      [
        Test.make ~name:"per-domain magazine pair"
          (Staged.stage (fun () ->
               let b = Objpool.Pool.alloc pooled in
               Objpool.Pool.release pooled b));
        Test.make ~name:"global locked pool pair"
          (Staged.stage (fun () ->
               let b = Objpool.Locked_pool.alloc locked in
               Objpool.Locked_pool.release locked b));
        Test.make ~name:"fresh Bytes.create 4096"
          (Staged.stage (fun () -> ignore (Sys.opaque_identity (Bytes.create 4096))));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        let est =
          match Analyze.OLS.estimates o with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | Some _ | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square o with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
  in
  Experiments.Series.table
    ~header:[ "benchmark"; "ns/op"; "r^2" ]
    (List.sort compare rows)

(* --- Native pool: domain scaling (informational on 1-core hosts) --- *)

let bench_pool_domains () =
  wall (fun () ->
      section "Native pool vs locked pool under domain contention";
      let ndomains = max 2 (min 4 (Domain.recommended_domain_count ())) in
      let ops = 100_000 in
      let run_pooled () =
        let p =
          Objpool.Pool.create ~ctor:(fun () -> Bytes.create 512) ~target:32 ()
        in
        let worker () =
          for _ = 1 to ops do
            let b = Objpool.Pool.alloc p in
            Objpool.Pool.release p b
          done;
          Objpool.Pool.flush_local p
        in
        let t0 = Unix.gettimeofday () in
        let ds = List.init (ndomains - 1) (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join ds;
        Unix.gettimeofday () -. t0
      in
      let run_locked () =
        let p =
          Objpool.Locked_pool.create ~ctor:(fun () -> Bytes.create 512) ()
        in
        let worker () =
          for _ = 1 to ops do
            let b = Objpool.Locked_pool.alloc p in
            Objpool.Locked_pool.release p b
          done
        in
        let t0 = Unix.gettimeofday () in
        let ds = List.init (ndomains - 1) (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join ds;
        Unix.gettimeofday () -. t0
      in
      let tp = run_pooled () and tl = run_locked () in
      let rate t = float_of_int (ndomains * ops) /. t /. 1e6 in
      Experiments.Series.table
        ~header:[ "pool"; "domains"; "M ops/s" ]
        [
          [ "per-domain magazines"; string_of_int ndomains;
            Experiments.Series.f1 (rate tp) ];
          [ "single mutex"; string_of_int ndomains;
            Experiments.Series.f1 (rate tl) ];
        ];
      if Domain.recommended_domain_count () < 2 then
        print_endline
          "note: this host has one core, so contention effects are muted \
           (the simulated-machine figures above are the scaling result)")

(* --- Scenario library: trace replays + pathology highlights --- *)

(* Host wall time per scenario replay, recorded into BENCH_host.json's
   "scenarios" array (never printed in the table: the table is
   simulated data and must stay bit-identical across runs). *)
let scenario_times : (string * float) list ref = ref []

let bench_scenarios () =
  wall (fun () ->
      section "Scenario library (trace replays on the new allocator)";
      let rows =
        Experiments.Scenarios.run ~jobs:(effective_jobs ()) ~now:now_s ()
      in
      Experiments.Scenarios.print rows;
      scenario_times :=
        List.map
          (fun (r : Experiments.Scenarios.row) ->
            (r.Experiments.Scenarios.name, r.Experiments.Scenarios.wall_s))
          rows;
      (* Pathology analysis replays under the one installed flight
         recorder, so it runs serially; it is the bench-level proof
         that each scenario's target detector fires. *)
      print_newline ();
      Experiments.Scenarios.print_highlights ())

(* --- E15: serving traffic through the pool (lib/service) --- *)

(* Outcomes recorded into BENCH_host.json's "service" array: unlike the
   simulated tables, everything here is real hardware timing. *)
let service_outcomes : (string * Service.outcome) list ref = ref []

let bench_service () =
  wall (fun () ->
      section "Serving traffic through the native pool (E15)";
      let serve ?(refill = false) scenario ~domains ~requests =
        let cfg =
          { (Service.default ~scenario) with Service.domains; requests; refill }
        in
        let o = Service.run cfg in
        let label = if refill then scenario ^ "+refill" else scenario in
        service_outcomes := !service_outcomes @ [ (label, o) ];
        print_string (Service.to_string o);
        print_newline ()
      in
      (* A steady closed loop, plus the SpeedMalloc dedicated-refill-domain
         arm on the same load (prefills > 0 proves the stocker ran). *)
      serve "steady" ~domains:2 ~requests:125_000;
      serve "steady" ~domains:2 ~requests:125_000 ~refill:true;
      (* Cross-domain producer/consumer flow, where every object is freed
         on a different domain than its alloc. *)
      serve "producer_consumer" ~domains:4 ~requests:150_000)

(* --- E13: lock-free allocator arms --- *)

(* Set by --allocs: restricts the lockfree section's arms.  An unknown
   name is a usage error (exit 2, roster listed) before any section
   runs, matching kma_bench's converter behaviour. *)
let lockfree_whichs = ref Experiments.Lockfree_arms.default_whichs

let set_allocs spec =
  let names = String.split_on_char ',' spec in
  lockfree_whichs :=
    List.map
      (fun n ->
        match Baseline.Allocator.of_name (String.trim n) with
        | Some w -> w
        | None ->
            Printf.eprintf "bench: unknown allocator %S (valid: %s)\n"
              (String.trim n) Baseline.Allocator.roster_string;
            exit 2)
      names

let bench_lockfree () =
  wall (fun () ->
      let whichs = !lockfree_whichs in
      match
        Experiments.Lockfree_arms.run ~jobs:(effective_jobs ()) ~whichs
          ~cpus:[ 1; 2; 4; 8; 16; 26 ] ~iters:400 ()
      with
      | points ->
          Experiments.Lockfree_arms.print_throughput points;
          Experiments.Lockfree_arms.print_retries points;
          let remote =
            Experiments.Lockfree_arms.run_crosscpu
              ~jobs:(effective_jobs ()) ~whichs ~pairs:[ 1; 2; 4; 8 ]
              ~blocks_per_pair:300 ()
          in
          Experiments.Lockfree_arms.print_crosscpu remote;
          let storm =
            Experiments.Lockfree_arms.run_storm ~jobs:(effective_jobs ())
              ~whichs:
                (List.filter
                   (fun w -> List.mem w Baseline.Allocator.lockfree)
                   whichs)
              ~cpus:[ 1; 2; 4; 8; 16; 26 ] ()
          in
          Experiments.Lockfree_arms.print_storm storm
      | exception Experiments.Lockfree_arms.Conservation msg ->
          Printf.eprintf "bench: lockfree conservation violated: %s\n" msg;
          exit 1)

(* --- E14: NUMA scaling past the paper --- *)

let bench_numa () =
  wall (fun () ->
      let rows =
        Experiments.Numa.run ~jobs:(effective_jobs ())
          ~cpus:[ 32; 64; 128 ] ~nodes:[ 1; 4 ] ~iters:8 ()
      in
      Experiments.Numa.print rows)

(* --- E12: cache-geometry sweep --- *)

let bench_geometry () =
  wall (fun () ->
      let rows = Experiments.Geomsweep.run ~jobs:(effective_jobs ()) () in
      Experiments.Geomsweep.print rows)

let sections =
  [
    ("analysis", bench_analysis);
    ("opcounts", bench_opcounts);
    ("fig7", bench_fig7);
    ("fig9", bench_fig9);
    ("missrates", bench_missrates);
    ("geometry", bench_geometry);
    ("ablation-target", bench_ablation_target);
    ("ablation-pagepolicy", bench_ablation_page_policy);
    ("crosscpu", bench_crosscpu);
    ("lockfree", bench_lockfree);
    ("numa", bench_numa);
    ("scenarios", bench_scenarios);
    ("roads-not-taken", bench_roads_not_taken);
    ("bechamel", bechamel_suite);
    ("pool-domains", bench_pool_domains);
    ("service", bench_service);
    ("pressure", bench_pressure);
    ("fuzz", bench_fuzz);
    ("smoke", bench_smoke);
  ]

(* "smoke" is for dune's @runtest-smoke alias; it is not part of the
   run-everything default. *)
let default_sections =
  List.filter (fun (n, _) -> n <> "smoke") sections

(* Sections whose sweeps fan out over the job pool (analysis and
   missrates each drive a single machine; bechamel and pool-domains are
   host microbenchmarks) — the only ones --compare-jobs1 re-times. *)
let parallel_sections =
  [
    "opcounts"; "fig7"; "fig9"; "geometry"; "ablation-target";
    "ablation-pagepolicy"; "crosscpu"; "lockfree"; "numa"; "scenarios";
    "roads-not-taken"; "pressure"; "fuzz";
  ]

let host_json = ref (Some "BENCH_host.json")
let compare_jobs1 = ref false

(* Run [f] with stdout sent to /dev/null: --compare-jobs1 re-runs
   sections purely for their host time, and their (identical) output
   must not appear twice. *)
let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

type record = {
  rname : string;
  seconds : float;
  rjobs : int;
  seconds_jobs1 : float option;
}

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_host_json path records =
  let oc = open_out path in
  let total = List.fold_left (fun a r -> a +. r.seconds) 0. records in
  Printf.fprintf oc
    "{\n\
    \  \"host_cores\": %d,\n\
    \  \"recommended_domains\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"geometry\": \"%s\",\n"
    (Parallel.host_cores ())
    (Domain.recommended_domain_count ())
    !jobs
    (json_escape (Sim.Geometry.to_string (Sim.Geometry.ambient ())));
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n  \"sections\": [\n" total;
  List.iteri
    (fun i r ->
      let speedup =
        match r.seconds_jobs1 with
        | Some t1 when r.seconds > 0. -> Printf.sprintf "%.2f" (t1 /. r.seconds)
        | _ -> "null"
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"seconds\": %.3f, \"jobs\": %d, \
         \"seconds_jobs1\": %s, \"speedup_vs_jobs1\": %s}%s\n"
        (json_escape r.rname) r.seconds r.rjobs
        (match r.seconds_jobs1 with
        | Some t1 -> Printf.sprintf "%.3f" t1
        | None -> "null")
        speedup
        (if i = List.length records - 1 then "" else ","))
    records;
  Printf.fprintf oc "  ],\n  \"scenarios\": [\n";
  let sts = !scenario_times in
  List.iteri
    (fun i (name, seconds) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"seconds\": %.3f}%s\n"
        (json_escape name) seconds
        (if i = List.length sts - 1 then "" else ","))
    sts;
  Printf.fprintf oc "  ],\n  \"service\": [\n";
  let svc = !service_outcomes in
  List.iteri
    (fun i (label, (o : Service.outcome)) ->
      let s = o.Service.o_stats in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"domains\": %d, \"requests\": %d, \
         \"ops\": %d, \"seconds\": %.3f, \"ops_per_sec\": %.0f, \
         \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f, \
         \"creates\": %d, \"depot_acquires\": %d, \"contended\": %d, \
         \"contention_rate\": %.6f, \"drops\": %d, \"prefills\": %d}%s\n"
        (json_escape label) o.Service.o_domains o.Service.o_requests
        o.Service.o_ops o.Service.o_wall_s o.Service.o_ops_per_sec
        o.Service.o_p50 o.Service.o_p99 o.Service.o_p999
        s.Service.Pstats.s_creates s.Service.Pstats.s_depot_acquires
        s.Service.Pstats.s_depot_contended
        (if Float.is_nan o.Service.o_contention then 0.
         else o.Service.o_contention)
        s.Service.Pstats.s_drops s.Service.Pstats.s_prefills
        (if i = List.length svc - 1 then "" else ","))
    svc;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let set_jobs v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> jobs := n
  | Some _ | None ->
      Printf.eprintf "bench: invalid --jobs value %S (want an integer >= 1)\n"
        v;
      exit 2

(* A bad spec is a usage error: report and exit 2 before any section
   runs, so a typo cannot silently benchmark the default geometry. *)
let set_geometry spec =
  match Sim.Geometry.of_string spec with
  | Ok g -> Sim.Geometry.set_ambient g
  | Error msg ->
      Printf.eprintf "bench: bad --geometry: %s\n" msg;
      exit 2

let () =
  (* KMA_GEOMETRY first, so an explicit --geometry flag wins. *)
  (match Sim.Geometry.of_env () with
  | Ok g -> Sim.Geometry.set_ambient g
  | Error msg ->
      Printf.eprintf "bench: bad %s: %s\n" Sim.Geometry.env_var msg;
      exit 2);
  let rec parse args names =
    match args with
    | [] -> List.rev names
    | "--flight-recorder" :: rest ->
        flightrec_enabled := true;
        parse rest names
    | "--lockcheck" :: rest ->
        lockcheck_enabled := true;
        parse rest names
    | "--heapcheck" :: rest ->
        heapcheck_enabled := true;
        parse rest names
    | "--jobs" :: v :: rest ->
        set_jobs v;
        parse rest names
    | [ "--jobs" ] ->
        prerr_endline "bench: --jobs needs a value";
        exit 2
    | "--no-host-json" :: rest ->
        host_json := None;
        parse rest names
    | "--host-json" :: path :: rest ->
        host_json := Some path;
        parse rest names
    | [ "--host-json" ] ->
        prerr_endline "bench: --host-json needs a path";
        exit 2
    | "--compare-jobs1" :: rest ->
        compare_jobs1 := true;
        parse rest names
    | "--geometry" :: spec :: rest ->
        set_geometry spec;
        parse rest names
    | [ "--geometry" ] ->
        prerr_endline "bench: --geometry needs a spec (key=value,...)";
        exit 2
    | "--allocs" :: spec :: rest ->
        set_allocs spec;
        parse rest names
    | [ "--allocs" ] ->
        prerr_endline "bench: --allocs needs a comma-separated list of names";
        exit 2
    | arg :: rest
      when String.length arg > 9 && String.sub arg 0 9 = "--allocs=" ->
        set_allocs (String.sub arg 9 (String.length arg - 9));
        parse rest names
    | arg :: rest
      when String.length arg > 11 && String.sub arg 0 11 = "--geometry=" ->
        set_geometry (String.sub arg 11 (String.length arg - 11));
        parse rest names
    | arg :: rest
      when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        parse rest names
    | name :: rest -> parse rest (name :: names)
  in
  let names = parse (List.tl (Array.to_list Sys.argv)) [] in
  if !jobs > 1 && (!flightrec_enabled || !lockcheck_enabled) then
    prerr_endline
      "bench: note: --flight-recorder/--lockcheck keep host-global state; \
       their sections run with jobs=1";
  let requested =
    match names with [] -> List.map fst default_sections | names -> names
  in
  let records = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          let rjobs =
            if List.mem name parallel_sections then effective_jobs () else 1
          in
          let t0 = now_s () in
          f ();
          let seconds = now_s () -. t0 in
          let seconds_jobs1 =
            if
              !compare_jobs1 && rjobs > 1
              && List.mem name parallel_sections
            then begin
              let saved = !jobs in
              let t1 = now_s () in
              Fun.protect
                ~finally:(fun () -> jobs := saved)
                (fun () ->
                  jobs := 1;
                  silenced f);
              Some (now_s () -. t1)
            end
            else None
          in
          records := { rname = name; seconds; rjobs; seconds_jobs1 } :: !records
      | None ->
          Printf.eprintf "unknown section %s (have: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested;
  (match !host_json with
  | Some path -> write_host_json path (List.rev !records)
  | None -> ());
  print_newline ();
  print_endline "bench: all requested sections completed"
