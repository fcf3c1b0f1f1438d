open Kma

(* Size class 4 = 256-byte blocks, target 10.  Use explicit small
   targets where the walkthrough needs them. *)

let si = 4

(* Paper Figure 2 walkthrough uses target = 3. *)
let fig2_params () =
  let targets = Array.make 9 3 in
  let gbltargets = Array.make 9 4 in
  Util.kmem ~targets ~gbltargets ()

let test_first_alloc_misses_then_hits () =
  let m, k = Util.kmem () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Percpu.alloc ctx ~si in
      Alcotest.(check bool) "allocated" true (a <> 0);
      for _ = 1 to 5 do
        let b = Percpu.alloc ctx ~si in
        Alcotest.(check bool) "allocated more" true (b <> 0)
      done);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "6 allocs" 6 st.Kstats.allocs;
  Alcotest.(check int) "one global trip" 1 st.Kstats.alloc_misses

let test_alloc_free_pairs_stay_local () =
  let m, k = Util.kmem () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Percpu.alloc ctx ~si in
      Percpu.free ctx ~si a;
      for _ = 1 to 100 do
        let b = Percpu.alloc ctx ~si in
        Percpu.free ctx ~si b
      done);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "single warm-up miss" 1 st.Kstats.alloc_misses;
  Alcotest.(check int) "no free misses" 0 st.Kstats.free_misses

let test_lifo_reuse () =
  let m, k = Util.kmem () in
  let ctx = Util.ctx_of k in
  let same =
    Util.on_cpu m (fun () ->
        let a = Percpu.alloc ctx ~si in
        Percpu.free ctx ~si a;
        let b = Percpu.alloc ctx ~si in
        a = b)
  in
  Alcotest.(check bool) "immediately reallocates the hot block" true same

(* The paper's Figure 2 narrative, with target = 3 and a cache holding
   main = 1 block, aux = 3 blocks:
   - one more block may be allocated from main, emptying it;
   - a second allocation moves aux's contents to main and uses one;
   - two more allocations empty main again;
   - the next allocation must refill from the global layer. *)
let test_figure2_walkthrough () =
  let m, k = fig2_params () in
  let ctx = Util.ctx_of k in
  let cached ~cpu = Percpu.cached_blocks_oracle ctx ~cpu ~si in
  Util.on_cpu m (fun () ->
      (* Build the Figure 2 state: fill main (3) and aux (3), then
         allocate twice so main holds 1 and aux holds 3.  Frees of 7
         blocks from a fresh cache: refill gives 3 (main 2 after the
         alloc)... construct directly instead: allocate 7 blocks, free
         7: cache then holds main=1? — deterministic but opaque.  Pin
         the exact state by allocating 6 and freeing them. *)
      let blocks = Array.init 6 (fun _ -> Percpu.alloc ctx ~si) in
      Array.iter (fun a -> Percpu.free ctx ~si a) blocks;
      (* 6 frees onto an empty cache with target 3: after 3 frees main
         is full; 4th free slides main to aux (no flush: aux empty);
         frees 4-6 fill main again.  State: main=3, aux=3. *)
      Alcotest.(check int) "cache full at 2*target" 6 (cached ~cpu:0);
      (* Allocate twice: main 3 -> 1. *)
      ignore (Percpu.alloc ctx ~si);
      ignore (Percpu.alloc ctx ~si);
      Alcotest.(check int) "figure 2 state" 4 (cached ~cpu:0);
      let misses_before =
        (Kmem.stats k).Kstats.sizes.(si).Kstats.alloc_misses
      in
      (* One more allocation comes from main. *)
      ignore (Percpu.alloc ctx ~si);
      (* Next allocation moves aux to main and uses one (main: 2). *)
      ignore (Percpu.alloc ctx ~si);
      Alcotest.(check int) "aux slid into main" 2 (cached ~cpu:0);
      (* Two more empty main. *)
      ignore (Percpu.alloc ctx ~si);
      ignore (Percpu.alloc ctx ~si);
      Alcotest.(check int) "cache empty" 0 (cached ~cpu:0);
      let misses_mid = (Kmem.stats k).Kstats.sizes.(si).Kstats.alloc_misses in
      Alcotest.(check int) "no global trips so far" misses_before misses_mid;
      (* The next allocation must go to the global layer. *)
      ignore (Percpu.alloc ctx ~si);
      Alcotest.(check int) "global refill"
        (misses_before + 1)
        (Kmem.stats k).Kstats.sizes.(si).Kstats.alloc_misses)

let test_free_flushes_in_target_groups () =
  let m, k = fig2_params () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      (* Allocate 12 then free 12: each flush hands exactly one
         target-sized (3-block) list to the global layer. *)
      let blocks = Array.init 12 (fun _ -> Percpu.alloc ctx ~si) in
      Array.iter (fun a -> Percpu.free ctx ~si a) blocks);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  (* 12 frees, target 3: frees 1-3 fill main; 4 slides; 5-6 fill; 7
     flushes aux + slides; ... flushes at frees 7, 10. *)
  Alcotest.(check int) "two flushes" 2 st.Kstats.free_misses;
  Alcotest.(check int) "cache keeps 2*target" 6
    (Percpu.cached_blocks_oracle ctx ~cpu:0 ~si)

let test_cache_bound_invariant () =
  let m, k = Util.kmem () in
  let ctx = Util.ctx_of k in
  let target = (Kmem.params k).Params.targets.(si) in
  Util.on_cpu m (fun () ->
      let live = ref [] in
      for i = 1 to 200 do
        if i mod 3 = 0 then
          match !live with
          | a :: rest ->
              live := rest;
              Percpu.free ctx ~si a
          | [] -> ()
        else begin
          let a = Percpu.alloc ctx ~si in
          live := a :: !live
        end;
        let c = Percpu.cached_blocks_oracle ctx ~cpu:0 ~si in
        if c > 2 * target then
          Alcotest.failf "cache grew to %d blocks (target %d)" c target
      done)

let test_cross_cpu_flow_handshake () =
  (* CPU 0 allocates, CPU 1 frees — the pattern the global layer
     exists for.  CPU 1 waits on a handshake word in simulated memory
     before touching the mailbox. *)
  let m, k = Util.kmem ~ncpus:2 () in
  let ctx = Util.ctx_of k in
  let mailbox = ref [] in
  Sim.Machine.run m
    [|
      (fun _ ->
        mailbox := List.init 40 (fun _ -> Percpu.alloc ctx ~si);
        Sim.Machine.write 8 1);
      (fun _ ->
        while Sim.Machine.read 8 = 0 do
          Sim.Machine.spin_pause ()
        done;
        List.iter (fun a -> Percpu.free ctx ~si a) !mailbox);
    |];
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "all freed" 40 st.Kstats.frees;
  Alcotest.(check bool) "cpu1 flushed lists to global" true
    (st.Kstats.free_misses >= 2);
  (* CPU 1's cache is bounded even though it only ever freed. *)
  let target = (Kmem.params k).Params.targets.(si) in
  Alcotest.(check bool) "cpu1 cache bounded" true
    (Percpu.cached_blocks_oracle ctx ~cpu:1 ~si <= 2 * target)

let test_drain () =
  let m, k = Util.kmem () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Percpu.alloc ctx ~si in
      Percpu.free ctx ~si a;
      Percpu.drain ctx ~si);
  Alcotest.(check int) "cache empty after drain" 0
    (Percpu.cached_blocks_oracle ctx ~cpu:0 ~si);
  Alcotest.(check bool) "blocks back in global" true
    (Global.total_blocks_oracle ctx ~si > 0)

(* Property: random per-CPU alloc/free traffic never hands out the same
   block twice, and the cache bound holds throughout. *)
let prop_no_double_allocation =
  QCheck.Test.make ~name:"no block handed out twice" ~count:40
    QCheck.(small_list bool)
    (fun ops ->
      let m, k = Util.kmem () in
      let ctx = Util.ctx_of k in
      let ok = ref true in
      Util.on_cpu m (fun () ->
          let live = Hashtbl.create 64 in
          List.iter
            (fun is_alloc ->
              if is_alloc then begin
                let a = Percpu.alloc ctx ~si in
                if a = 0 || Hashtbl.mem live a then ok := false
                else Hashtbl.add live a ()
              end
              else
                let bindings = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
                match bindings with
                | a :: _ ->
                    Hashtbl.remove live a;
                    Percpu.free ctx ~si a
                | [] -> ())
            ops);
      !ok)

let suite =
  [
    Alcotest.test_case "first alloc misses, rest hit" `Quick
      test_first_alloc_misses_then_hits;
    Alcotest.test_case "alloc/free pairs stay CPU-local" `Quick
      test_alloc_free_pairs_stay_local;
    Alcotest.test_case "LIFO reuse of the hot block" `Quick test_lifo_reuse;
    Alcotest.test_case "paper Figure 2 walkthrough" `Quick
      test_figure2_walkthrough;
    Alcotest.test_case "frees flush in target-sized groups" `Quick
      test_free_flushes_in_target_groups;
    Alcotest.test_case "cache bounded by 2*target" `Quick
      test_cache_bound_invariant;
    Alcotest.test_case "cross-CPU alloc/free flows via global" `Quick
      test_cross_cpu_flow_handshake;
    Alcotest.test_case "drain empties the cache" `Quick test_drain;
    QCheck_alcotest.to_alcotest prop_no_double_allocation;
  ]
