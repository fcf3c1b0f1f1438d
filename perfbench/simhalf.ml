(* The simulated half: newkma ([Kma.Kmem]) booted on a simulated
   Symmetry ([Sim.Machine]), driven only through public entry points.
   Everything measured here in cycles is exact; only the host-time
   fields vary between repetitions. *)

module M = Sim.Machine

(* Each job runs [repeat] timed simulations on one fresh boot. *)
type job =
  | Bestcase of { ncpus : int; bytes : int; iters : int; repeat : int }
      (** Figure 7's loop: [iters] alloc/free pairs per CPU, caches
          warmed *)
  | Replay of { trace : Workload.Trace.t; repeat : int }
      (** a multi-CPU trace *)

(* Exact counters of one repetition.  Field order is the determinism
   signature's order. *)
type counts = {
  ops : int;
  cycles : int;  (** elapsed simulated cycles *)
  cpu_cycles : int;  (** per-CPU clocks summed: the stall-share base *)
  retired : int;
  peak_pages : int;
  grants : int;
  reclaims : int;
  allocs : int;
  frees : int;
  alloc_misses : int;
  free_misses : int;
  gbl_lists : int;
  gbl_misses : int;
  page_blocks : int;
  pages_grabbed : int;
  pages_returned : int;
  accesses : int;
  misses : int;
  c2c : int;
  upgrades : int;
  stall : int;
}

(* Per-layer allocation cost from the flight recorder (traced runs). *)
type layer_cost = {
  mutable percpu : int * int;  (** (cycles, allocs) *)
  mutable global : int * int;
  mutable pagepool : int * int;
  mutable spins : int;
  mutable acquires : int;
}

(* One timed simulation: the best-case loop, or one replay. *)
type timed = {
  host_s : float;  (** its wall time *)
  calib_s : float;  (** {!Calib.measure} just before it *)
  insns : int;  (** simulated instructions it retired, all CPUs *)
  cycles : int;  (** simulated cycles it took *)
}

type rep = {
  counts : counts;
  p50 : int;  (** median simulated latency of one operation *)
  p99 : int;
  timed : timed list;
  setup_s : float;  (** wall time of boot (and warm-up, for Bestcase) *)
  setup_calib_s : float;  (** {!Calib.measure} just before boot *)
  failed : int;  (** operations lost to failed output checks *)
  problems : string list;
  layers : layer_cost option;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The allocator [Baseline.Allocator.create Newkma] boots, keeping the
   [Kmem] handle that the statistics and the heap check need. *)
let newkma m =
  let memory_words = (M.config m).Sim.Config.memory_words in
  let k = Kma.Kmem.create m ~params:(Kma.Params.auto ~memory_words) () in
  let a =
    {
      Baseline.Allocator.name = "newkma";
      alloc =
        (fun ~bytes ->
          match Kma.Kmem.try_alloc k ~bytes with Some a -> a | None -> 0);
      free = (fun ~addr ~bytes -> Kma.Kmem.free k ~addr ~bytes);
    }
  in
  (k, a)

(* Host-side clock read: not a simulated operation, so stamping an
   operation cannot move a single cycle. *)
let stamp () = match M.running () with Some (_, t) -> t | None -> 0

let warmup_pairs iters = (iters / 10) + 1

let pair (a : Baseline.Allocator.t) ~bytes =
  M.work Workload.Bestcase.loop_overhead;
  let addr = a.alloc ~bytes in
  if addr <> 0 then a.free ~addr ~bytes;
  addr <> 0

let job_ncpus = function
  | Bestcase b -> b.ncpus
  | Replay r -> Workload.Trace.ncpus r.trace

(* Events a CPU emits per operation are a handful; size the rings so
   nothing is ever dropped (checked after the run). *)
let recorder_capacity = function
  | Bestcase b -> (8 * (2 * b.iters * b.repeat)) + 1024
  | Replay { trace; repeat } ->
      let per = Array.make (Workload.Trace.ncpus trace) 0 in
      List.iter
        (fun e ->
          let c = Workload.Trace.cpu_of e in
          per.(c) <- per.(c) + 1)
        trace;
      (16 * repeat * Array.fold_left max 0 per) + 1024

(* Join each CPU's Alloc events, in order, to that CPU's allocation
   latencies.  An allocation whose global-layer visit refilled from the
   page layer ([Gbl_get] miss, or a page grab) is charged to the page
   layer. *)
let join_layers rec_ (alloc_lats : Stat.Ibuf.t array) =
  let lc =
    { percpu = (0, 0); global = (0, 0); pagepool = (0, 0); spins = 0; acquires = 0 }
  in
  let bump (c, n) lat = (c + lat, n + 1) in
  let problems = ref [] in
  Array.iteri
    (fun cpu lats ->
      let i = ref 0 and paged = ref false in
      Flightrec.Recorder.iter_cpu rec_ ~cpu (fun ev ->
          match ev.Flightrec.Event.kind with
          | Gbl_get { miss = true; _ } | Page_grab _ -> paged := true
          | Alloc { layer; _ } ->
              if !i < Stat.Ibuf.length lats then begin
                let lat = Stat.Ibuf.get lats !i in
                (match layer with
                | Percpu -> lc.percpu <- bump lc.percpu lat
                | _ when !paged -> lc.pagepool <- bump lc.pagepool lat
                | _ -> lc.global <- bump lc.global lat)
              end;
              incr i;
              paged := false
          | Alloc_fail _ | Free _ -> paged := false
          | Lock_acquire { spins; _ } ->
              lc.spins <- lc.spins + spins;
              lc.acquires <- lc.acquires + 1
          | _ -> ());
      if !i <> Stat.Ibuf.length lats then
        problems :=
          Printf.sprintf "cpu%d: %d Alloc events for %d allocations" cpu !i
            (Stat.Ibuf.length lats)
          :: !problems)
    alloc_lats;
  (lc, !problems)

(* One repetition: the job on a fresh boot, then every output check. *)
let run_rep ~traced job =
  (* Collect the previous repetition's machine first, so two are never
     resident at once and peak memory does not depend on GC timing. *)
  Gc.full_major ();
  let setup_calib_s = Calib.measure () in
  let t_setup = now_s () in
  let ncpus = job_ncpus job in
  let m = M.create (Workload.Rig.paper_config ~ncpus ()) in
  let k, a = newkma m in
  let failed = ref 0 in
  (match job with
  | Bestcase { bytes; iters; _ } ->
      M.run_symmetric m ~ncpus (fun _ ->
          for _ = 1 to warmup_pairs iters do
            if not (pair a ~bytes) then incr failed
          done);
      M.reset_clocks m;
      Sim.Cache.reset_stats (M.cache m);
      Kma.Kstats.reset (Kma.Kmem.stats k);
      Sim.Vmsys.reset_counters (Kma.Kmem.vmsys k)
  | Replay _ -> ());
  let setup_s = now_s () -. t_setup in
  let lats = Stat.Ibuf.create () in
  let alloc_lats = Array.init ncpus (fun _ -> Stat.Ibuf.create ()) in
  let rec_ =
    if traced then begin
      let r =
        Flightrec.Recorder.create ~capacity:(recorder_capacity job) ~ncpus ()
      in
      Flightrec.Recorder.install r;
      Some r
    end
    else None
  in
  let on_op ~cpu ~alloc ~latency =
    Stat.Ibuf.push lats latency;
    if traced && alloc then Stat.Ibuf.push alloc_lats.(cpu) latency
  in
  let per_cpu f =
    List.fold_left (fun acc cpu -> acc + f cpu) 0 (List.init ncpus Fun.id)
  in
  let retired () = per_cpu (fun cpu -> M.retired m ~cpu) in
  (* One timed simulation: (operations, failed operations, cycles). *)
  let simulate, repeat =
    match job with
    | Bestcase { bytes; iters; repeat; _ } ->
        ( (fun () ->
            let c0 = M.elapsed m in
            M.run_symmetric m ~ncpus (fun cpu ->
                for _ = 1 to iters do
                  M.work Workload.Bestcase.loop_overhead;
                  let s0 = stamp () in
                  let addr = a.alloc ~bytes in
                  let s1 = stamp () in
                  on_op ~cpu ~alloc:true ~latency:(s1 - s0);
                  if addr = 0 then incr failed
                  else begin
                    a.free ~addr ~bytes;
                    on_op ~cpu ~alloc:false ~latency:(stamp () - s1)
                  end
                done);
            (2 * ncpus * iters, 0, M.elapsed m - c0)),
          repeat )
    | Replay { trace; repeat } ->
        ( (fun () ->
            let r = Workload.Trace.replay ~on_op m trace a in
            (r.ops, r.failures + r.skipped_frees, r.cycles)),
          repeat )
  in
  (* Start every repetition's timed simulations from the same collected
     heap, so host time does not depend on what the previous repetition
     left behind. *)
  Gc.full_major ();
  let timed = ref [] and ops = ref 0 and failures = ref 0 and cycles = ref 0 in
  for _ = 1 to repeat do
    let calib_s = Calib.measure () in
    let i0 = retired () and t0 = now_s () in
    let o, f, c = simulate () in
    let host_s = now_s () -. t0 in
    timed := { host_s; calib_s; insns = retired () - i0; cycles = c } :: !timed;
    ops := !ops + o;
    failures := !failures + f;
    cycles := !cycles + c
  done;
  let ops = !ops and failures = !failures and cycles = !cycles in
  Flightrec.Recorder.uninstall ();
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if failures > 0 then problem "%d failed or skipped operations" failures;
  (match Heapcheck.check k with
  | [] -> ()
  | v :: _ as vs ->
      problem "heapcheck: %d violations, first %s: %s" (List.length vs)
        (Heapcheck.rule_name v.rule) v.detail);
  let ks = Kma.Kmem.stats k in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 ks.Kma.Kstats.sizes in
  let allocs = sum (fun s -> s.allocs) and frees = sum (fun s -> s.frees) in
  if allocs <> frees || ks.large_allocs <> ks.large_frees then
    problem "blocks outstanding at the end: %d allocs, %d frees" allocs frees;
  let vm = Kma.Kmem.vmsys k in
  let cs = Sim.Cache.total_stats (M.cache m) in
  let counts =
    {
      ops;
      cycles;
      cpu_cycles = per_cpu (fun cpu -> M.cpu_time m ~cpu);
      retired = retired ();
      peak_pages = Sim.Vmsys.peak_granted vm;
      grants = Sim.Vmsys.grant_count vm;
      reclaims = Sim.Vmsys.reclaim_count vm;
      allocs;
      frees;
      alloc_misses = sum (fun s -> s.alloc_misses);
      free_misses = sum (fun s -> s.free_misses);
      gbl_lists = sum (fun s -> s.gbl_gets + s.gbl_puts);
      gbl_misses = sum (fun s -> s.gbl_get_misses + s.gbl_put_misses);
      page_blocks = sum (fun s -> s.page_block_gets + s.page_block_puts);
      pages_grabbed = sum (fun s -> s.pages_grabbed);
      pages_returned = sum (fun s -> s.pages_returned);
      accesses = cs.loads + cs.stores + cs.rmws;
      misses = cs.misses;
      c2c = cs.c2c;
      upgrades = cs.upgrades;
      stall = cs.stall_cycles;
    }
  in
  let layers =
    match rec_ with
    | None -> None
    | Some r ->
        let drops = Flightrec.Recorder.total_drops r in
        if drops > 0 then problem "flight recorder dropped %d events" drops;
        let lc, ps = join_layers r alloc_lats in
        List.iter (problem "trace join: %s") ps;
        Some lc
  in
  let failed = !failed + if !problems = [] then 0 else ops in
  let lats = Stat.Ibuf.sorted lats in
  {
    counts;
    p50 = Stat.rank_quantile lats 0.50;
    p99 = Stat.rank_quantile lats 0.99;
    timed = List.rev !timed;
    setup_s;
    setup_calib_s;
    failed;
    problems = List.rev !problems;
    layers;
  }

(* Everything a repetition computes in simulated units.  Two runs of
   the same inputs must produce the same string, traced or not. *)
let signature r =
  let c = r.counts in
  Printf.sprintf
    "ops=%d cycles=%d cpu_cycles=%d retired=%d peak=%d grants=%d reclaims=%d \
     allocs=%d frees=%d amiss=%d fmiss=%d gbl=%d gmiss=%d blocks=%d grab=%d \
     ret=%d acc=%d miss=%d c2c=%d upg=%d stall=%d p50=%d p99=%d"
    c.ops c.cycles c.cpu_cycles c.retired c.peak_pages c.grants c.reclaims
    c.allocs c.frees c.alloc_misses c.free_misses c.gbl_lists c.gbl_misses
    c.page_blocks c.pages_grabbed c.pages_returned c.accesses c.misses c.c2c
    c.upgrades c.stall r.p50 r.p99

(* The cross-check that the benchmark's stamped loop is Figure 7's loop:
   the library's own [Bestcase.run] must report the cycles of the first
   loop after warm-up. *)
let bestcase_crosscheck job rep =
  match job with
  | Bestcase { ncpus; bytes; iters; _ } ->
      let r =
        Workload.Bestcase.run ~which:Baseline.Allocator.Newkma ~ncpus ~iters
          ~bytes ()
      in
      let first = (List.hd rep.timed).cycles in
      if r.cycles = first then None
      else
        Some
          (Printf.sprintf "stamped loop took %d cycles, Bestcase.run %d" first
             r.cycles)
  | Replay _ -> None
