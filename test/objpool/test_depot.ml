open Objpool

let create ~target ~max_batches =
  Depot.create ~stats:(Pstats.create ()) ~target ~max_batches

let test_get_put () =
  let stats = Pstats.create () in
  let d = Depot.create ~stats ~target:2 ~max_batches:2 in
  Alcotest.(check (array int)) "empty" [||] (Depot.get d);
  Alcotest.(check bool) "kept" true (Depot.put d [| 1; 2 |] = `Kept);
  Alcotest.(check bool) "kept2" true (Depot.put d [| 3; 4 |] = `Kept);
  Alcotest.(check bool)
    "dropped at bound" true
    (Depot.put d [| 5 |] = `Dropped);
  Alcotest.(check int) "stock" 2 (Depot.batches d);
  Alcotest.(check (array int)) "LIFO batch" [| 3; 4 |] (Depot.get d);
  Alcotest.(check int) "stock down" 1 (Depot.batches d);
  Alcotest.(check bool) "invariants hold" true (Depot.check d);
  (* Every get/put is one recorded acquisition; monitoring reads
     ([batches], [check]) are not on the data path and do not count. *)
  Alcotest.(check int) "acquisitions recorded" 5 (Pstats.depot_acquires stats);
  Alcotest.(check int) "uncontended" 0 (Pstats.depot_contended stats)

let test_put_partial_feeds_get () =
  let d = create ~target:4 ~max_batches:4 in
  Depot.put_partial d [ 1; 2; 3 ];
  (* Loose items come back in the order they would have been popped:
     the head of the returned list first, so it sits on top. *)
  Alcotest.(check (array int)) "loose served" [| 3; 2; 1 |] (Depot.get d);
  Alcotest.(check (array int)) "then empty" [||] (Depot.get d);
  Depot.put_partial d [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (array int)) "regrouped full batch" [| 1; 2; 3; 4 |]
    (Depot.get d);
  Alcotest.(check bool) "invariants hold" true (Depot.check d)

let test_drain () =
  let d = create ~target:4 ~max_batches:4 in
  ignore (Depot.put d [| 1; 2 |]);
  Depot.put_partial d [ 3 ];
  Alcotest.(check (list int)) "all out" [ 2; 1; 3 ] (Depot.drain d);
  Alcotest.(check int) "empty" 0 (Depot.batches d);
  Alcotest.(check bool) "invariants hold" true (Depot.check d)

(* Empty batches never reach the stock: a [get] that returns [[||]]
   always means "nothing here", so a caller's pop cannot run off the
   bottom of an array. *)
let test_empty_batches_rejected () =
  let stats = Pstats.create () in
  let d = Depot.create ~stats ~target:4 ~max_batches:4 in
  Alcotest.check_raises "empty put rejected"
    (Invalid_argument "Pool.Depot.put: batch empty or longer than target")
    (fun () -> ignore (Depot.put d [||]));
  Alcotest.check_raises "long put rejected"
    (Invalid_argument "Pool.Depot.put: batch empty or longer than target")
    (fun () -> ignore (Depot.put d [| 1; 2; 3; 4; 5 |]));
  Alcotest.(check int) "nothing stocked" 0 (Depot.batches d);
  Alcotest.(check int) "no acquisition either" 0 (Pstats.depot_acquires stats);
  Depot.put_partial d [];
  Alcotest.(check (array int))
    "empty partial stocks nothing" [||] (Depot.get d);
  ignore (Depot.put d [| 1 |]);
  Alcotest.(check bool) "check: stocked batches non-empty" true (Depot.check d)

(* Concurrent hammering from 4 domains: every batch put is either
   dropped (counted) or eventually gettable; nothing is duplicated. *)
let test_concurrent_integrity () =
  let d = create ~target:1 ~max_batches:8 in
  let per_domain = 500 in
  let ndomains = 4 in
  let dropped = Atomic.make 0 in
  let gotten = Atomic.make 0 in
  let domains =
    List.init ndomains (fun di ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let v = (di * per_domain) + i in
              (match Depot.put d [| v |] with
              | `Kept -> ()
              | `Dropped -> Atomic.incr dropped);
              Atomic.fetch_and_add gotten (Array.length (Depot.get d))
              |> ignore
            done))
  in
  List.iter Domain.join domains;
  let leftover = List.length (Depot.drain d) in
  Alcotest.(check int) "puts = drops + gets + leftover"
    (ndomains * per_domain)
    (Atomic.get dropped + Atomic.get gotten + leftover)

let suite =
  [
    Alcotest.test_case "get/put with bound" `Quick test_get_put;
    Alcotest.test_case "put_partial feeds get" `Quick
      test_put_partial_feeds_get;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "empty batches never stocked" `Quick
      test_empty_batches_rejected;
    Alcotest.test_case "4-domain integrity" `Quick test_concurrent_integrity;
  ]
