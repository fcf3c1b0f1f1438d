open Objpool

(* Pooled object carrying a checked-out flag so tests can detect a
   double hand-out, plus an id. *)
type obj = { id : int; checked_out : bool Atomic.t; mutable dirty : bool }

let make_pool ?(target = 4) ?(depot_batches = 8)
    ?(reset = fun o -> o.dirty <- false) () =
  let next = Atomic.make 0 in
  Pool.create
    ~ctor:(fun () ->
      {
        id = Atomic.fetch_and_add next 1;
        checked_out = Atomic.make false;
        dirty = false;
      })
    ~reset ~target ~depot_batches ()

(* Called from worker domains too, so it raises rather than going
   through Alcotest, whose reporting is not safe to call from several
   domains at once; [Domain.join] re-raises in the test. *)
let checkout o =
  if not (Atomic.compare_and_set o.checked_out false true) then
    failwith (Printf.sprintf "object %d handed out twice" o.id)

let checkin o = Atomic.set o.checked_out false

let test_reuse () =
  let p = make_pool () in
  let a = Pool.alloc p in
  Pool.release p a;
  let b = Pool.alloc p in
  Alcotest.(check int) "hot object reused" a.id b.id;
  Pool.release p b;
  Alcotest.(check int) "one construction" 1 (Pstats.creates (Pool.stats p))

let test_reset_applied () =
  let p = make_pool () in
  let a = Pool.alloc p in
  a.dirty <- true;
  Pool.release p a;
  let b = Pool.alloc p in
  Alcotest.(check bool) "reset on release" false b.dirty;
  Pool.release p b

let test_with_obj_releases_on_exception () =
  let p = make_pool () in
  (match Pool.with_obj p (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "released" 1 (Pstats.frees (Pool.stats p))

let test_never_hands_out_twice_single_domain () =
  let p = make_pool () in
  let live = ref [] in
  for i = 1 to 500 do
    if i mod 3 = 0 then (
      match !live with
      | o :: rest ->
          live := rest;
          checkin o;
          Pool.release p o
      | [] -> ())
    else begin
      let o = Pool.alloc p in
      checkout o;
      live := o :: !live
    end
  done;
  List.iter
    (fun o ->
      checkin o;
      Pool.release p o)
    !live

let test_flush_local_shares_stock () =
  let p = make_pool ~target:4 () in
  (* Fill this domain's magazine. *)
  let objs = List.init 8 (fun _ -> Pool.alloc p) in
  List.iter (fun o -> Pool.release p o) objs;
  Alcotest.(check int) "depot still empty" 0 (Pool.depot_batches p);
  Pool.flush_local p;
  (* Another domain can now allocate without constructing. *)
  let creates_before = Pstats.creates (Pool.stats p) in
  let d =
    Domain.spawn (fun () ->
        let o = Pool.alloc p in
        Pool.release p o;
        ())
  in
  Domain.join d;
  Alcotest.(check int) "no new constructions" creates_before
    (Pstats.creates (Pool.stats p))

let test_multidomain_stress () =
  let p = make_pool ~target:8 ~depot_batches:16 () in
  let ndomains = 4 and per_domain = 2000 in
  let domains =
    List.init ndomains (fun _ ->
        Domain.spawn (fun () ->
            let live = Queue.create () in
            for i = 1 to per_domain do
              if i mod 2 = 0 && Queue.length live > 0 then begin
                let o = Queue.pop live in
                checkin o;
                Pool.release p o
              end
              else begin
                let o = Pool.alloc p in
                checkout o;
                Queue.add o live
              end
            done;
            while Queue.length live > 0 do
              let o = Queue.pop live in
              checkin o;
              Pool.release p o
            done;
            Pool.flush_local p))
  in
  List.iter Domain.join domains;
  Alcotest.(check bool) "invariants hold" true (Pool.check p);
  let st = Pool.stats p in
  Alcotest.(check int) "allocs = frees" (Pstats.allocs st) (Pstats.frees st);
  Alcotest.(check bool) "magazines absorb most traffic" true
    (Pstats.magazine_hit_rate st > 0.5)

let test_depot_overflow_drops () =
  let p = make_pool ~target:2 ~depot_batches:1 () in
  let objs = List.init 20 (fun _ -> Pool.alloc p) in
  List.iter (fun o -> Pool.release p o) objs;
  (* 20 releases with a 2-target magazine (holds 4) and a 1-batch depot:
     something must have been dropped to the GC. *)
  Alcotest.(check bool) "drops counted" true (Pstats.drops (Pool.stats p) > 0);
  Alcotest.(check bool) "invariants hold" true (Pool.check p)

(* Overflow is bounded and leaves the pool serving. *)
let test_depot_overflow_bounded () =
  let p = make_pool ~target:2 ~depot_batches:1 () in
  let objs = List.init 40 (fun _ -> Pool.alloc p) in
  List.iter (Pool.release p) objs;
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check bool) "drops happened" true (s.Pstats.s_drops > 0);
  Alcotest.(check int) "all frees counted" 40 s.Pstats.s_frees;
  (* Capacity bounds what survives: one depot batch + the magazine. *)
  Alcotest.(check bool) "depot respects bound" true (Pool.depot_batches p <= 1);
  Alcotest.(check bool) "invariants hold" true (Pool.check p);
  let o = Pool.alloc p in
  Alcotest.(check bool) "pool still serves" true (o.id >= 0);
  Pool.release p o

(* Pstats is safe to read while writers race: two domains run real
   pool traffic (magazine hits, depot exchanges, flush_local) while this
   domain reads. *)
let test_pstats_racing_readers () =
  let p = make_pool ~target:4 ~depot_batches:4 () in
  let s = Pool.stats p in
  let per_domain = 50_000 in
  let writer () =
    for i = 1 to per_domain do
      let a = Pool.alloc p in
      let b = Pool.alloc p in
      Pool.release p a;
      Pool.release p b;
      if i mod 1000 = 0 then Pool.flush_local p
    done;
    Pool.flush_local p
  in
  let ds = List.init 2 (fun _ -> Domain.spawn writer) in
  let total = 2 * 2 * per_domain in
  (* Race reads against the writers: every read must be a valid count,
     and each counter must be monotone across successive reads. *)
  let last = ref (Pstats.read s) in
  for _ = 1 to 2_000 do
    let snap = Pstats.read s in
    let field name f =
      let v = f snap and prev = f !last in
      if v < 0 || v > total then Alcotest.failf "%s out of range: %d" name v;
      if v < prev then Alcotest.failf "%s went backwards: %d < %d" name v prev
    in
    field "allocs" (fun r -> r.Pstats.s_allocs);
    field "frees" (fun r -> r.Pstats.s_frees);
    field "depot_acquires" (fun r -> r.Pstats.s_depot_acquires);
    last := snap
  done;
  List.iter Domain.join ds;
  let snap = Pstats.read s in
  Alcotest.(check int) "exact allocs" total snap.Pstats.s_allocs;
  Alcotest.(check int) "exact frees" total snap.Pstats.s_frees;
  Alcotest.(check int)
    "exact acquires: one per depot get or put"
    (snap.Pstats.s_depot_gets + snap.Pstats.s_depot_puts)
    snap.Pstats.s_depot_acquires;
  Alcotest.(check bool) "contended within acquires" true
    (snap.Pstats.s_depot_contended <= snap.Pstats.s_depot_acquires)

(* After warm-up, a hit-path alloc/release pair allocates nothing: the
   magazine is an array stack and the counters are plain ints. *)
let test_hit_path_allocation_free () =
  let p = Pool.create ~ctor:(fun () -> Bytes.create 64) () in
  for _ = 1 to 100 do
    Pool.release p (Pool.alloc p)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Pool.release p (Pool.alloc p)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words" 0. words;
  Alcotest.(check int) "one construction" 1 (Pstats.creates (Pool.stats p))

(* An empty magazine over an empty depot falls back to the
   constructor: [Depot.get]'s empty array is never popped. *)
let test_empty_depot_constructs () =
  let p = make_pool ~target:4 ~depot_batches:4 () in
  let a = Pool.alloc p in
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "went to the depot" 1 s.Pstats.s_depot_gets;
  Alcotest.(check int) "then the constructor" 1 s.Pstats.s_creates;
  Alcotest.(check int) "fresh object" 0 a.id;
  Pool.release p a;
  Alcotest.(check bool) "invariants hold" true (Pool.check p)

(* A pool of floats keeps its values: magazine arrays made from a
   float element are flat float arrays, read and written as such. *)
let test_float_pool () =
  let next = ref 0. in
  let p =
    Pool.create
      ~ctor:(fun () ->
        next := !next +. 1.5;
        !next)
      ~target:2 ~depot_batches:4 ()
  in
  let xs = List.init 9 (fun _ -> Pool.alloc p) in
  List.iter (Pool.release p) xs;
  let ys = List.init 9 (fun _ -> Pool.alloc p) in
  Alcotest.(check (list (float 0.)))
    "same values back" (List.sort compare xs) (List.sort compare ys);
  Alcotest.(check bool) "invariants hold" true (Pool.check p)

(* flush_local makes a domain's stock reachable from the domain that
   outlives it. *)
let test_flush_local_cross_domain () =
  let p = make_pool ~target:4 ~depot_batches:8 () in
  let d =
    Domain.spawn (fun () ->
        let objs = List.init 8 (fun _ -> Pool.alloc p) in
        List.iter (Pool.release p) objs;
        Pool.flush_local p)
  in
  Domain.join d;
  let created = Pstats.creates (Pool.stats p) in
  (* Everything the worker built is now in the depot: this domain can
     allocate without paying constructor cost. *)
  let mine = List.init 8 (fun _ -> Pool.alloc p) in
  Alcotest.(check int)
    "no new constructions" created
    (Pstats.creates (Pool.stats p));
  List.iter (Pool.release p) mine

(* A reset raising mid-release abandons the object. *)
let test_reset_raising () =
  let p =
    make_pool ~reset:(fun o -> if o.dirty then failwith "poisoned reset") ()
  in
  let a = Pool.alloc p in
  a.dirty <- true;
  (match Pool.release p a with
  | () -> Alcotest.fail "expected the reset exception to propagate"
  | exception Failure _ -> ());
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "abandoned, not freed" 0 s.Pstats.s_frees;
  (* The poisoned object re-entered nothing: the next alloc builds a
     fresh one, and normal traffic still flows. *)
  let b = Pool.alloc p in
  Alcotest.(check bool) "fresh object" true (b.id <> a.id);
  Pool.release p b;
  Alcotest.(check int) "pool usable after" 1
    (Pstats.frees (Pool.stats p))

(* target:1 (no batching) still round-trips. *)
let test_target_one () =
  let p = make_pool ~target:1 ~depot_batches:2 () in
  for _ = 1 to 10 do
    let o = Pool.alloc p in
    Pool.release p o
  done;
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "balanced" s.Pstats.s_allocs s.Pstats.s_frees;
  Alcotest.(check bool) "tiny working set" true (s.Pstats.s_creates <= 3)

(* refill, the SpeedMalloc dedicated-core hook. *)
let test_refill () =
  let p = make_pool ~target:4 ~depot_batches:4 () in
  Alcotest.(check int) "kept until full" 4 (Pool.refill p ~batches:10);
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "prefills counted" 4 s.Pstats.s_prefills;
  Alcotest.(check int) "one speculative batch dropped" 1 s.Pstats.s_drops;
  Alcotest.(check int) "depot fully stocked" 4 (Pool.depot_batches p);
  (* Workers now never pay constructor cost. *)
  let o = Pool.alloc p in
  Alcotest.(check int) "no create on alloc" 0
    (Pstats.creates (Pool.stats p));
  Pool.release p o;
  Alcotest.(check int) "zero batches is a no-op" 0 (Pool.refill p ~batches:0);
  Alcotest.check_raises "negative batches rejected"
    (Invalid_argument "Pool.refill: batches < 0") (fun () ->
      ignore (Pool.refill p ~batches:(-1)))

let prop_single_domain_traffic =
  QCheck.Test.make ~name:"random traffic keeps stats consistent" ~count:100
    QCheck.(small_list bool)
    (fun ops ->
      let p = make_pool ~target:3 ~depot_batches:4 () in
      let live = ref [] in
      List.for_all
        (fun is_alloc ->
          (if is_alloc then live := Pool.alloc p :: !live
           else
             match !live with
             | o :: rest ->
                 live := rest;
                 Pool.release p o
             | [] -> Pool.flush_local p);
          Pool.check p)
        ops
      &&
      let st = Pool.stats p in
      Pstats.allocs st - Pstats.frees st = List.length !live)

let suite =
  [
    Alcotest.test_case "hot object reused, ctor once" `Quick test_reuse;
    Alcotest.test_case "reset applied on release" `Quick test_reset_applied;
    Alcotest.test_case "with_obj releases on exception" `Quick
      test_with_obj_releases_on_exception;
    Alcotest.test_case "never hands out twice (single domain)" `Quick
      test_never_hands_out_twice_single_domain;
    Alcotest.test_case "flush_local shares stock across domains" `Quick
      test_flush_local_shares_stock;
    Alcotest.test_case "4-domain stress: exact accounting" `Quick
      test_multidomain_stress;
    Alcotest.test_case "depot overflow drops to GC" `Quick
      test_depot_overflow_drops;
    Alcotest.test_case "depot overflow bounded, pool serves" `Quick
      test_depot_overflow_bounded;
    Alcotest.test_case "pstats racing readers" `Quick
      test_pstats_racing_readers;
    Alcotest.test_case "flush_local cross-domain" `Quick
      test_flush_local_cross_domain;
    Alcotest.test_case "reset raising abandons" `Quick test_reset_raising;
    Alcotest.test_case "target:1" `Quick test_target_one;
    Alcotest.test_case "refill" `Quick test_refill;
    Alcotest.test_case "hit path allocates nothing" `Quick
      test_hit_path_allocation_free;
    Alcotest.test_case "empty depot falls back to ctor" `Quick
      test_empty_depot_constructs;
    Alcotest.test_case "float pool round-trips" `Quick test_float_pool;
    QCheck_alcotest.to_alcotest prop_single_domain_traffic;
  ]
