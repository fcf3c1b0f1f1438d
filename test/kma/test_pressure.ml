(* The memory-pressure subsystem: reap/drain correctness, bounded
   retries, and determinism (including with the flight recorder
   installed). *)

open Kma

let sizes = [| 64; 256; 1024 |]

(* One E8-shaped churn round: allocate [batch] mixed-size blocks, then
   free them all LIFO.  Freeing whole batches pushes lists through the
   global layer and returns fully-free pages, so every round generates
   fresh VM traffic (and fresh chances to be denied).  Returns the
   number of permanent allocation failures. *)
let churn ?(rounds = 12) ?(batch = 60) k =
  let slots = Array.make batch 0 in
  let failures = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to batch - 1 do
      match Kmem.try_alloc k ~bytes:sizes.(i mod 3) with
      | Some a -> slots.(i) <- a
      | None ->
          slots.(i) <- 0;
          incr failures
    done;
    for i = batch - 1 downto 0 do
      if slots.(i) <> 0 then
        Kmem.free k ~addr:slots.(i) ~bytes:sizes.(i mod 3)
    done
  done;
  !failures

let test_full_reap_returns_all () =
  let m, k = Util.kmem () in
  Pressure.enable k;
  Util.on_cpu m (fun () ->
      let live =
        List.init 120 (fun i ->
            (Kmem.alloc k ~bytes:sizes.(i mod 3), sizes.(i mod 3)))
      in
      List.iter (fun (a, bytes) -> Kmem.free k ~addr:a ~bytes) live;
      let reclaimed = Pressure.reap k ~full:true in
      Alcotest.(check bool) "full reap reclaims pages" true (reclaimed > 0));
  Alcotest.(check int) "every drainable page returned to the VM system" 0
    (Kmem.granted_pages_oracle k)

let test_light_reap_keeps_warmth () =
  (* A light reap flushes only the reserve halves and trims the global
     layer; the warm main freelists survive, so the very next allocation
     is still a fast-path hit. *)
  let m, k = Util.kmem () in
  Pressure.enable k;
  Util.on_cpu m (fun () ->
      let live = List.init 60 (fun _ -> Kmem.alloc k ~bytes:256) in
      List.iter (fun a -> Kmem.free k ~addr:a ~bytes:256) live;
      ignore (Pressure.reap k ~full:false);
      let before = Sim.Machine.retired m ~cpu:0 in
      let a = Kmem.alloc k ~bytes:256 in
      let cost = Sim.Machine.retired m ~cpu:0 - before in
      Alcotest.(check bool) "allocated" true (a <> 0);
      Alcotest.(check int) "standard alloc still warm after light reap" 35
        cost;
      Kmem.free k ~addr:a ~bytes:256)

let test_retries_rescue_all_allocations () =
  (* At a 50 % injected denial rate the bounded reap-and-retry path must
     rescue every allocation: zero permanent failures, and the stats
     must show both retries and reap-returned pages. *)
  let m, k = Util.kmem () in
  Pressure.enable k;
  Sim.Vmsys.set_fault_rate (Kmem.vmsys k) ~seed:7 0.5;
  let failures = Util.on_cpu m (fun () -> churn ~rounds:15 k) in
  let st = Kmem.stats k in
  Alcotest.(check int) "zero permanent failures" 0 failures;
  Alcotest.(check bool) "some allocations needed the retry path" true
    (st.Kstats.pressure_retries > 0);
  Alcotest.(check bool) "reaps returned pages" true (st.Kstats.reap_pages > 0);
  Alcotest.(check int) "no allocation degraded to failure" 0
    st.Kstats.pressure_failures

let test_debug_poison_survives_pressure () =
  (* Under the debug kernel every allocation verifies the free-time
     poison, so a block lost, duplicated or corrupted by the reap paths
     raises Corruption.  After the pressured churn, a full reap must
     account for every page, and a fresh sweep re-checks every block. *)
  let m = Util.machine () in
  let params = Params.make ~vmblk_pages:16 ~debug:true () in
  let k = Kmem.create m ~params () in
  Pressure.enable k;
  Util.on_cpu m (fun () ->
      Sim.Vmsys.set_fault_rate (Kmem.vmsys k) ~seed:5 0.3;
      ignore (churn ~rounds:10 k);
      Sim.Vmsys.set_fault_rate (Kmem.vmsys k) 0.;
      ignore (Pressure.reap k ~full:true);
      let sweep = List.init 200 (fun _ -> Kmem.alloc k ~bytes:64) in
      List.iter (fun a -> Kmem.free k ~addr:a ~bytes:64) sweep;
      ignore (Pressure.reap k ~full:true));
  Alcotest.(check int) "no page stranded, no block lost" 0
    (Kmem.granted_pages_oracle k)

(* One pressured run, reduced to everything observable: cycle count,
   failures, and the pressure statistics. *)
let pressured_run ?recorder () =
  (match recorder with
  | Some r -> Flightrec.Recorder.install r
  | None -> Flightrec.Recorder.uninstall ());
  Fun.protect ~finally:Flightrec.Recorder.uninstall (fun () ->
      let m, k = Util.kmem () in
      Pressure.enable k;
      Sim.Vmsys.set_fault_rate (Kmem.vmsys k) ~seed:11 0.3;
      let failures = Util.on_cpu m (fun () -> churn ~rounds:15 k) in
      let st = Kmem.stats k in
      ( Sim.Machine.elapsed m,
        failures,
        st.Kstats.reaps,
        st.Kstats.reap_pages,
        st.Kstats.pressure_retries ))

let test_deterministic_under_fixed_seed () =
  let a = pressured_run () in
  let b = pressured_run () in
  Alcotest.(check bool) "identical cycles and pressure stats" true (a = b)

let test_bit_identical_with_recorder () =
  (* Recording is host-side: a pressured run with the flight recorder
     installed retires exactly the same cycles as one without. *)
  let bare = pressured_run () in
  let r = Flightrec.Recorder.create ~ncpus:4 () in
  let recorded = pressured_run ~recorder:r () in
  Alcotest.(check bool) "recorder changes nothing simulated" true
    (bare = recorded);
  Alcotest.(check bool) "pressure events were recorded" true
    (Flightrec.Recorder.recorded r > 0)

let suite =
  [
    Alcotest.test_case "full reap returns every drainable page" `Quick
      test_full_reap_returns_all;
    Alcotest.test_case "light reap keeps the fast path warm" `Quick
      test_light_reap_keeps_warmth;
    Alcotest.test_case "retry-with-reap rescues all allocations" `Quick
      test_retries_rescue_all_allocations;
    Alcotest.test_case "debug poison survives pressured churn" `Quick
      test_debug_poison_survives_pressure;
    Alcotest.test_case "deterministic under a fixed seed" `Quick
      test_deterministic_under_fixed_seed;
    Alcotest.test_case "bit-identical with the recorder on" `Quick
      test_bit_identical_with_recorder;
  ]
