(* Exact gate on perfbench's simulated metrics.

   Usage: check.exe EXPECTED RUN.out...

   EXPECTED holds one "workload metric value" line per pinned number.
   Each RUN.out is the stdout of one [perfbench/main.exe --trace 0]
   run.  A run passes when its JSON summary says [correct: true] and
   [failed: 0], and every pinned metric of its workload (named on the
   run's [env] line) equals the expected value exactly, compared as
   floats.  Host and native metrics are noisy and never pinned.  Any
   failure is printed and the exit status is 1. *)

let lines path = In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let () =
  match Array.to_list Sys.argv with
  | _ :: expected :: runs when runs <> [] ->
      let pins =
        List.filter_map
          (fun l ->
            match words l with
            | [ w; m; v ] -> Some ((w, m), float_of_string v)
            | [] -> None
            | _ -> failwith (Printf.sprintf "%s: bad line %S" expected l))
          (lines expected)
      in
      let errors = ref 0 in
      let fail fmt =
        Printf.ksprintf (fun s -> incr errors; prerr_endline s) fmt
      in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun run ->
          let ls = lines run in
          let workload =
            List.find_map
              (fun l ->
                match words l with
                | "env" :: kv :: _
                  when String.starts_with ~prefix:"workload=" kv ->
                    Some (String.sub kv 9 (String.length kv - 9))
                | _ -> None)
              ls
            |> Option.value ~default:"?"
          in
          let summary =
            List.find_opt (String.starts_with ~prefix:"{\"correct\"") ls
          in
          (match summary with
          | Some s
            when contains s "\"correct\": true" && contains s "\"failed\": 0," ->
              ()
          | _ -> fail "%s (%s): not correct, or failed operations" run workload);
          List.iter
            (fun l ->
              match words l with
              | [ "metric"; m; v; _ ] -> (
                  match List.assoc_opt (workload, m) pins with
                  | Some want ->
                      Hashtbl.replace seen (workload, m) ();
                      let got = float_of_string v in
                      if not (Float.equal got want) then
                        fail "%s %s: got %s, expected %.17g" workload m v want
                  | None -> ())
              | _ -> ())
            ls)
        runs;
      List.iter
        (fun ((w, m), _) ->
          if not (Hashtbl.mem seen (w, m)) then
            fail "%s %s: pinned but not reported by any run" w m)
        pins;
      if !errors > 0 then exit 1
  | _ ->
      prerr_endline "usage: check.exe EXPECTED RUN.out...";
      exit 2
