open Objpool

let get_opt m = if Magazine.is_empty m then None else Some (Magazine.get m)

let test_empty_get () =
  let m = Magazine.create ~target:3 in
  Alcotest.(check bool) "empty" true (Magazine.is_empty m);
  Alcotest.(check int) "size" 0 (Magazine.size m);
  match Magazine.get m with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_put_get_lifo () =
  let m = Magazine.create ~target:3 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  Alcotest.(check int) "lifo" 3 (Magazine.get m);
  Alcotest.(check int) "lifo" 2 (Magazine.get m);
  Alcotest.(check bool) "invariant" true (Magazine.check m)

let test_overflow_slides_then_flushes () =
  let m = Magazine.create ~target:2 in
  Alcotest.(check bool) "p1" true (Magazine.put m 1 = `Ok);
  Alcotest.(check bool) "p2" true (Magazine.put m 2 = `Ok);
  (* main full, aux empty: slide, no flush. *)
  Alcotest.(check bool) "p3 slides" true (Magazine.put m 3 = `Ok);
  Alcotest.(check bool) "p4" true (Magazine.put m 4 = `Ok);
  (* main full again, aux full: flush aux. *)
  (match Magazine.put m 5 with
  | `Flush batch ->
      (* Bottom to top: 2 would pop first. *)
      Alcotest.(check (array int)) "target-sized batch" [| 1; 2 |] batch
  | `Ok -> Alcotest.fail "expected flush");
  Alcotest.(check int) "occupancy bounded" 3 (Magazine.size m);
  Alcotest.(check bool) "invariant" true (Magazine.check m)

let test_get_slides_aux () =
  let m = Magazine.create ~target:2 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  (* main = [3], aux = [2;1] *)
  Alcotest.(check (option int)) "main first" (Some 3) (get_opt m);
  Alcotest.(check (option int)) "aux slides" (Some 2) (get_opt m);
  Alcotest.(check (option int)) "aux tail" (Some 1) (get_opt m);
  Alcotest.(check (option int)) "empty" None (get_opt m);
  Alcotest.(check bool) "invariant" true (Magazine.check m)

let test_install () =
  let m = Magazine.create ~target:3 in
  let batch = [| 8; 7 |] in
  Magazine.install m batch;
  Alcotest.(check int) "installed, top first" 7 (Magazine.get m);
  (* Adopted, not copied: the next put lands in the same array. *)
  ignore (Magazine.put m 9);
  Alcotest.(check int) "array adopted" 9 batch.(1);
  (match Magazine.install m [| 9 |] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let m2 = Magazine.create ~target:2 in
  match Magazine.install m2 [| 1; 2; 3 |] with
  | () -> Alcotest.fail "expected Invalid_argument (too long)"
  | exception Invalid_argument _ -> ()

let test_drain () =
  let m = Magazine.create ~target:2 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "drained all, get order" [ 3; 2; 1 ]
    (Magazine.drain m);
  Alcotest.(check int) "empty after" 0 (Magazine.size m)

(* A float pool's arrays are flat float arrays; the magazine must not
   mix representations. *)
let test_floats () =
  let m = Magazine.create ~target:2 in
  List.iter (fun f -> ignore (Magazine.put m f)) [ 1.5; 2.5; 3.5 ];
  (match Magazine.put m 4.5 with
  | `Ok -> ()
  | `Flush _ -> Alcotest.fail "unexpected flush");
  let got = List.init 4 (fun _ -> Magazine.get m) in
  Alcotest.(check (list (float 0.))) "lifo floats" [ 4.5; 3.5; 2.5; 1.5 ] got

(* The sequential reference: list stacks with the same slide and flush
   rule, heads popping first. *)
module Model = struct
  type t = { tgt : int; mutable main : int list; mutable aux : int list }

  let create tgt = { tgt; main = []; aux = [] }
  let size m = List.length m.main + List.length m.aux

  let get m =
    match m.main with
    | x :: rest ->
        m.main <- rest;
        Some x
    | [] -> (
        match m.aux with
        | x :: rest ->
            m.main <- rest;
            m.aux <- [];
            Some x
        | [] -> None)

  let put m x =
    if List.length m.main < m.tgt then begin
      m.main <- x :: m.main;
      None
    end
    else begin
      let flushed = m.aux in
      m.aux <- m.main;
      m.main <- [ x ];
      if flushed = [] then None else Some flushed
    end

  let drain m =
    let all = m.main @ m.aux in
    m.main <- [];
    m.aux <- [];
    all
end

(* Pop order of an array batch. *)
let pop_order b = List.rev (Array.to_list b)

type op = Put | Get | Install of int | Drain

let op_of (kind, k) =
  if kind < 4 then Put else if kind < 8 then Get else if kind = 8 then Install k
  else Drain

let prop_bounded_and_conserving =
  QCheck.Test.make ~name:"magazine bounded; puts - gets = size" ~count:500
    QCheck.(pair (int_range 1 8) (list (pair (int_range 0 9) (int_range 1 8))))
    (fun (target, ops) ->
      let m = Magazine.create ~target and model = Model.create target in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let puts = ref 0 and gets = ref 0 and out = ref 0 in
      let step op =
        (match op with
        | Put -> (
            incr puts;
            let x = fresh () in
            match (Magazine.put m x, Model.put model x) with
            | `Ok, None -> ()
            | `Flush b, Some mb ->
                out := !out + Array.length b;
                if pop_order b <> mb then QCheck.Test.fail_report "flush batch"
            | _ -> QCheck.Test.fail_report "flush disagrees")
        | Get -> (
            match (get_opt m, Model.get model) with
            | Some x, Some y when x = y -> incr gets
            | None, None -> ()
            | _ -> QCheck.Test.fail_report "get disagrees")
        | Install k ->
            let k = 1 + ((k - 1) mod target) in
            let batch = List.init k (fun _ -> fresh ()) in
            if model.Model.main = [] then begin
              puts := !puts + k;
              Magazine.install m (Array.of_list (List.rev batch));
              model.Model.main <- batch
            end
            else begin
              match Magazine.install m [| 0 |] with
              | () -> QCheck.Test.fail_report "install into non-empty main"
              | exception Invalid_argument _ -> ()
            end
        | Drain ->
            let d = Magazine.drain m in
            out := !out + List.length d;
            if d <> Model.drain model then QCheck.Test.fail_report "drain");
        Magazine.check m
        && Magazine.size m = Model.size model
        && Magazine.size m <= 2 * target
        && Magazine.size m = !puts - !gets - !out
      in
      List.for_all (fun o -> step (op_of o)) ops)

let suite =
  [
    Alcotest.test_case "get on empty" `Quick test_empty_get;
    Alcotest.test_case "put/get LIFO" `Quick test_put_get_lifo;
    Alcotest.test_case "overflow slides then flushes" `Quick
      test_overflow_slides_then_flushes;
    Alcotest.test_case "get slides aux into main" `Quick test_get_slides_aux;
    Alcotest.test_case "install constraints" `Quick test_install;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "float pool stays flat" `Quick test_floats;
    QCheck_alcotest.to_alcotest prop_bounded_and_conserving;
  ]
