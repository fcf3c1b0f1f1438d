(* The native half: [Objpool.Pool] driven by real OCaml 5 domains.
   Wall-clock numbers, so every figure is taken per trial and the
   workload reports medians over trials. *)

module Pool = Objpool.Pool
module Pstats = Objpool.Pstats

type shape =
  | Local of { obj_bytes : int; ks : int array; rounds : int }
      (** one domain; request [i] allocates [ks.(i mod length)] objects,
          touches them and releases them, [rounds] times over *)
  | Handoff of { obj_bytes : int; counts : int array; depot_batches : int }
      (** the main domain allocates batch [i] of [counts.(i mod length)]
          objects and hands it through a {!depth}-deep queue to one
          spawned domain, which releases them; the pool's depot holds
          [depot_batches] batches *)

let domains = function Local _ -> 1 | Handoff _ -> 2

(* Batches a handoff queue holds. *)
let depth = 4
let now () = Int64.to_int (Monotonic_clock.now ())

(* Per-call latency by what the call did, classified from the pool's
   own counters (traced runs only). *)
type calls = {
  a_hit : Stat.Hist.t;
  a_depot : Stat.Hist.t;
  a_ctor : Stat.Hist.t;
  r_hit : Stat.Hist.t;
  r_flush : Stat.Hist.t;
}

let new_calls () =
  let h () = Stat.Hist.create () in
  { a_hit = h (); a_depot = h (); a_ctor = h (); r_hit = h (); r_flush = h () }

let clear_calls c =
  List.iter Stat.Hist.clear [ c.a_hit; c.a_depot; c.a_ctor; c.r_hit; c.r_flush ]

let merge_calls ~into c =
  Stat.Hist.merge_into ~into:into.a_hit c.a_hit;
  Stat.Hist.merge_into ~into:into.a_depot c.a_depot;
  Stat.Hist.merge_into ~into:into.a_ctor c.a_ctor;
  Stat.Hist.merge_into ~into:into.r_hit c.r_hit;
  Stat.Hist.merge_into ~into:into.r_flush c.r_flush

(* In both shapes only one domain allocates and only one releases, so a
   counter that moved during a call was moved by that call. *)
let timed_alloc pool calls () =
  let st = Pool.stats pool in
  let c0 = Pstats.creates st and g0 = Pstats.depot_gets st in
  let t0 = now () in
  let x = Pool.alloc pool in
  let dt = now () - t0 in
  let h =
    if Pstats.creates st > c0 then calls.a_ctor
    else if Pstats.depot_gets st > g0 then calls.a_depot
    else calls.a_hit
  in
  Stat.Hist.record h dt;
  x

let timed_release pool calls x =
  let st = Pool.stats pool in
  let p0 = Pstats.depot_puts st in
  let t0 = now () in
  Pool.release pool x;
  let dt = now () - t0 in
  Stat.Hist.record (if Pstats.depot_puts st > p0 then calls.r_flush else calls.r_hit) dt

(* GC pauses from the runtime's own event ring (traced runs only). *)
module Gcwatch = struct
  let pauses = ref []
  let lost = ref 0
  let open_ : (int * Runtime_events.runtime_phase, int) Hashtbl.t = Hashtbl.create 8
  let cursor = ref None

  let callbacks =
    let is_pause = function
      | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
      | _ -> false
    in
    let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts ph ->
        if is_pause ph then Hashtbl.replace open_ (ring, ph) (ns ts))
      ~runtime_end:(fun ring ts ph ->
        match Hashtbl.find_opt open_ (ring, ph) with
        | Some t0 when is_pause ph ->
            Hashtbl.remove open_ (ring, ph);
            pauses := (ns ts - t0) :: !pauses
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  (* Recording runs only inside traced trials: the simulated half would
     overflow the ring between polls. *)
  let start () =
    Runtime_events.start ();
    Runtime_events.pause ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* Pauses that ended since the last call. *)
  let take () =
    poll ();
    let p = !pauses in
    pauses := [];
    p
end

(* A slice of a trial's timed loop, each with its own host-speed
   calibration: the host's speed changes at about this grain. *)
type slice = {
  s_ops : int;
  s_ns : int;
  s_calib_s : float;  (** {!Calib.measure} just before the slice *)
  s_p50 : float;
  s_p99 : float;
}

let slice_ns = 20_000_000

(* Latencies of the slice being timed, closed into a [slice] once
   [slice_ns] have passed. *)
type slicer = {
  sl_hist : Stat.Hist.t;
  mutable sl_start : int;
  mutable sl_calib_s : float;
  mutable sl_ops : int;
  mutable sl_done : slice list;
}

let new_slicer () =
  {
    sl_hist = Stat.Hist.create ();
    sl_start = 0;
    sl_calib_s = 0.;
    sl_ops = 0;
    sl_done = [];
  }

(* Calibrate, then start timing a slice; returns its start time. *)
let start_slice sl =
  sl.sl_calib_s <- Calib.measure ();
  let t = now () in
  sl.sl_start <- t;
  t

(* Count a request of [ops] operations that ended at [t]; returns the
   time the next request's timing may start, after the bookkeeping of a
   slice that this request closed. *)
let slice_request sl ~ops ~lat ~t =
  Stat.Hist.record sl.sl_hist lat;
  sl.sl_ops <- sl.sl_ops + ops;
  if t - sl.sl_start < slice_ns then t
  else begin
    sl.sl_done <-
      {
        s_ops = sl.sl_ops;
        s_ns = t - sl.sl_start;
        s_calib_s = sl.sl_calib_s;
        s_p50 = Stat.Hist.quantile sl.sl_hist 0.5;
        s_p99 = Stat.Hist.quantile sl.sl_hist 0.99;
      }
      :: sl.sl_done;
    Stat.Hist.clear sl.sl_hist;
    sl.sl_ops <- 0;
    start_slice sl
  end

type trial = {
  ops : int;
  wall_s : float;
  setup_s : float;
  setup_calib_s : float;  (** {!Calib.measure} just before set-up *)
  hist : Stat.Hist.t;  (** per-request latency, ns *)
  slices : slice list;  (** whole slices of the timed loop *)
  failed : int;
  problems : string list;
  before : Pstats.snapshot;  (** pool counters when timing started *)
  after : Pstats.snapshot;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  calls : calls option;
  pauses : int list;  (** GC pauses during timing, ns (traced) *)
}

let ctor obj_bytes () = Bytes.make obj_bytes '\000'

(* The benchmark's own use-while-held check: byte 0 of an object is 1
   exactly while some request holds it.  The pool handing out a held
   object, or taking back one twice, flips a check. *)
let take_obj bad x obj_bytes =
  if Bytes.unsafe_get x 0 <> '\000' then incr bad;
  Bytes.unsafe_set x 0 '\001';
  Bytes.unsafe_set x (obj_bytes - 1) '\001'

let give_obj bad x =
  if Bytes.unsafe_get x 0 <> '\001' then incr bad;
  Bytes.unsafe_set x 0 '\000'

let balance_problems pool =
  let st = Pool.stats pool in
  if Pstats.allocs st = Pstats.frees st then []
  else
    [
      Printf.sprintf "pool: %d allocs but %d frees" (Pstats.allocs st)
        (Pstats.frees st);
    ]

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.minor_collections, s.major_collections)

(* Everything a trial measures once timing starts. *)
type window = {
  w_before : Pstats.snapshot;
  w_mw : float;
  w_gcs : int * int;
  w_t0 : int;
}

let open_window pool ~traced =
  if traced then begin
    Runtime_events.resume ();
    ignore (Gcwatch.take ())
  end;
  {
    w_before = Pstats.read (Pool.stats pool);
    w_mw = Gc.minor_words ();
    w_gcs = gc_counts ();
    w_t0 = now ();
  }

let close_window w pool ~traced ~t_end ~ops ~setup_ns ~setup_calib_s ~hist
    ~slices ~bad ~extra_words ~calls =
  let minor_words = Gc.minor_words () -. w.w_mw +. extra_words in
  let mc1, jc1 = gc_counts () in
  let pauses =
    if traced then begin
      Runtime_events.pause ();
      Gcwatch.take ()
    end
    else []
  in
  let after = Pstats.read (Pool.stats pool) in
  let problems =
    (if bad > 0 then [ Printf.sprintf "%d use-while-held violations" bad ] else [])
    @ balance_problems pool
  in
  {
    ops;
    wall_s = float_of_int (t_end - w.w_t0) *. 1e-9;
    setup_s = float_of_int setup_ns *. 1e-9;
    setup_calib_s;
    hist;
    slices;
    failed = (if problems = [] then 0 else ops);
    problems;
    before = w.w_before;
    after;
    minor_words;
    minor_gcs = mc1 - fst w.w_gcs;
    major_gcs = jc1 - snd w.w_gcs;
    calls = (if traced then Some calls else None);
    pauses;
  }

let local_trial ~obj_bytes ~ks ~rounds ~warmup ~seconds ~traced =
  let setup_calib_s = Calib.measure () in
  let t_setup = now () in
  let pool = Pool.create ~ctor:(ctor obj_bytes) () in
  let calls = new_calls () in
  let alloc = if traced then timed_alloc pool calls else fun () -> Pool.alloc pool in
  let release = if traced then timed_release pool calls else Pool.release pool in
  let held = Array.make (Array.fold_left max 1 ks) Bytes.empty in
  let bad = ref 0 in
  let nks = Array.length ks in
  let request i =
    let k = ks.(i mod nks) in
    for _ = 1 to rounds do
      for j = 0 to k - 1 do
        let x = alloc () in
        take_obj bad x obj_bytes;
        held.(j) <- x
      done;
      for j = 0 to k - 1 do
        let x = held.(j) in
        give_obj bad x;
        release x
      done
    done;
    2 * k * rounds
  in
  for i = 0 to warmup - 1 do
    ignore (request i)
  done;
  clear_calls calls;
  let setup_ns = now () - t_setup in
  let hist = Stat.Hist.create () in
  let w = open_window pool ~traced in
  let deadline = w.w_t0 + int_of_float (seconds *. 1e9) in
  let sl = new_slicer () in
  let ops = ref 0 and i = ref warmup and t = ref (start_slice sl) in
  while !t < deadline do
    let s = !t in
    let n = request !i in
    ops := !ops + n;
    incr i;
    let e = now () in
    Stat.Hist.record hist (e - s);
    t := slice_request sl ~ops:n ~lat:(e - s) ~t:e;
    if traced && !i land 1023 = 0 then Gcwatch.poll ()
  done;
  Pool.flush_local pool;
  close_window w pool ~traced ~t_end:!t ~ops:!ops ~setup_ns ~setup_calib_s
    ~hist ~slices:sl.sl_done ~bad:!bad ~extra_words:0. ~calls

(* Bounded queue of batch numbers between the two domains.  A side
   that must wait sleeps on a condition rather than spinning: on a
   two-vCPU guest whose vCPUs are not always co-scheduled, spinning made
   trial throughput swing 0.2-20 M ops/s. *)
type queue = {
  m : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  q : int Queue.t;
}

let push q v =
  Mutex.lock q.m;
  while Queue.length q.q >= depth do
    Condition.wait q.nonfull q.m
  done;
  Queue.push v q.q;
  Condition.signal q.nonempty;
  Mutex.unlock q.m

let pop q =
  Mutex.lock q.m;
  while Queue.is_empty q.q do
    Condition.wait q.nonempty q.m
  done;
  let v = Queue.pop q.q in
  Condition.signal q.nonfull;
  Mutex.unlock q.m;
  v

(* A request is one batch: the time its fill took on the producer plus
   the time its drain took on the consumer.  Waiting on the queue is
   part of neither, and one sample per batch keeps the distribution
   from being an even mixture of fills and drains, whose median would
   sit on the boundary between the two. *)
let handoff_trial ~obj_bytes ~counts ~depot_batches ~warmup ~seconds ~traced =
  let setup_calib_s = Calib.measure () in
  let t_setup = now () in
  let pool = Pool.create ~ctor:(ctor obj_bytes) ~depot_batches () in
  (* [depth] queued, one being filled, one being drained: a slot is
     never refilled while the consumer still reads it. *)
  let nslots = depth + 2 in
  let slots =
    Array.init nslots (fun _ -> Array.make (Array.fold_left max 1 counts) Bytes.empty)
  in
  let count i = counts.(i mod Array.length counts) in
  let fill_ns = Array.make nslots 0 in
  let q =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      q = Queue.create ();
    }
  in
  let drained = Atomic.make 0 in
  let consumer () =
    let calls = new_calls () in
    let release = if traced then timed_release pool calls else Pool.release pool in
    let hist = Stat.Hist.create () and bad = ref 0 and mw0 = ref 0. in
    let sl = new_slicer () in
    let rec loop () =
      let i = pop q in
      if i >= 0 then begin
        let s = slots.(i mod nslots) in
        if i = warmup then begin
          clear_calls calls;
          mw0 := Gc.minor_words ();
          ignore (start_slice sl)
        end;
        let t0 = now () in
        for j = 0 to count i - 1 do
          let x = s.(j) in
          give_obj bad x;
          release x
        done;
        if i >= warmup then begin
          let e = now () in
          let lat = fill_ns.(i mod nslots) + e - t0 in
          Stat.Hist.record hist lat;
          ignore (slice_request sl ~ops:(2 * count i) ~lat ~t:e)
        end;
        Atomic.incr drained;
        loop ()
      end
    in
    loop ();
    let mw = Gc.minor_words () -. !mw0 in
    Pool.flush_local pool;
    (hist, sl.sl_done, !bad, mw, calls)
  in
  let d = Domain.spawn consumer in
  let calls = new_calls () in
  let alloc = if traced then timed_alloc pool calls else fun () -> Pool.alloc pool in
  let bad = ref 0 in
  let fill i =
    let s = slots.(i mod nslots) in
    let t0 = now () in
    for j = 0 to count i - 1 do
      let x = alloc () in
      take_obj bad x obj_bytes;
      s.(j) <- x
    done;
    let t1 = now () in
    fill_ns.(i mod nslots) <- t1 - t0;
    t1
  in
  for i = 0 to warmup - 1 do
    ignore (fill i);
    push q i
  done;
  while Atomic.get drained < warmup do
    Domain.cpu_relax ()
  done;
  clear_calls calls;
  let setup_ns = now () - t_setup in
  let w = open_window pool ~traced in
  let deadline = w.w_t0 + int_of_float (seconds *. 1e9) in
  let i = ref warmup and t = ref w.w_t0 and ops = ref 0 in
  while !t < deadline do
    t := fill !i;
    ops := !ops + (2 * count !i);
    push q !i;
    incr i;
    if traced && !i land 63 = 0 then Gcwatch.poll ()
  done;
  push q (-1);
  let hist, slices, cbad, cmw, ccalls = Domain.join d in
  let t_end = now () in
  Pool.flush_local pool;
  merge_calls ~into:calls ccalls;
  close_window w pool ~traced ~t_end
    ~ops:!ops
    ~setup_ns ~setup_calib_s ~hist ~slices ~bad:(!bad + cbad) ~extra_words:cmw
    ~calls

let run_trial shape ~warmup ~seconds ~traced =
  (* Every trial starts from the same collected heap, whatever the
     simulated half left behind. *)
  Gc.full_major ();
  match shape with
  | Local { obj_bytes; ks; rounds } ->
      local_trial ~obj_bytes ~ks ~rounds ~warmup ~seconds ~traced
  | Handoff { obj_bytes; counts; depot_batches } ->
      handoff_trial ~obj_bytes ~counts ~depot_batches ~warmup ~seconds ~traced
