open Objpool

let create ~target ~max_batches =
  Depot.create ~stats:(Pstats.create ()) ~target ~max_batches

let test_get_put () =
  let stats = Pstats.create () in
  let d = Depot.create ~stats ~target:2 ~max_batches:2 in
  Alcotest.(check bool) "empty" true (Depot.get d = None);
  Alcotest.(check bool) "kept" true (Depot.put d [ 1; 2 ] = `Kept);
  Alcotest.(check bool) "kept2" true (Depot.put d [ 3; 4 ] = `Kept);
  Alcotest.(check bool) "dropped at bound" true (Depot.put d [ 5 ] = `Dropped);
  Alcotest.(check int) "stock" 2 (Depot.batches d);
  Alcotest.(check bool) "LIFO batch" true (Depot.get d = Some [ 3; 4 ]);
  Alcotest.(check int) "stock down" 1 (Depot.batches d);
  Alcotest.(check bool) "invariants hold" true (Depot.check d);
  (* Every get/put is one recorded acquisition; monitoring reads
     ([batches], [check]) are not on the data path and do not count. *)
  Alcotest.(check int) "acquisitions recorded" 5 (Pstats.depot_acquires stats);
  Alcotest.(check int) "uncontended" 0 (Pstats.depot_contended stats)

let test_put_partial_feeds_get () =
  let d = create ~target:4 ~max_batches:4 in
  Depot.put_partial d [ 1; 2; 3 ];
  (match Depot.get d with
  | Some items -> Alcotest.(check int) "loose served" 3 (List.length items)
  | None -> Alcotest.fail "expected loose items");
  Alcotest.(check bool) "then empty" true (Depot.get d = None)

let test_drain () =
  let d = create ~target:4 ~max_batches:4 in
  ignore (Depot.put d [ 1; 2 ]);
  Depot.put_partial d [ 3 ];
  Alcotest.(check int) "all out" 3 (List.length (Depot.drain d));
  Alcotest.(check int) "empty" 0 (Depot.batches d)

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
              (match Depot.put d [ v ] with
              | `Kept -> ()
              | `Dropped -> Atomic.incr dropped);
              match Depot.get d with
              | Some b -> Atomic.fetch_and_add gotten (List.length b) |> ignore
              | None -> ()
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
    Alcotest.test_case "4-domain integrity" `Quick test_concurrent_integrity;
  ]
