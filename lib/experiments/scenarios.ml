type row = {
  name : string;
  ncpus : int;
  events : int;
  result : Workload.Trace.result;
  ops_per_sec : float;
}

let run_one (sc : Scenario.t) =
  let t = sc.Scenario.generate ~seed:sc.Scenario.default_seed in
  let ncpus = max 1 (Workload.Trace.ncpus t) in
  let m = Sim.Machine.create (Workload.Rig.paper_config ~ncpus ()) in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  let r = Workload.Trace.replay m t a in
  let cfg = Sim.Machine.config m in
  {
    name = sc.Scenario.name;
    ncpus;
    events = List.length t;
    result = r;
    ops_per_sec =
      (if r.Workload.Trace.cycles = 0 then 0.
       else
         float_of_int r.Workload.Trace.ops
         /. Sim.Config.seconds_of_cycles cfg r.Workload.Trace.cycles);
  }

let run ?(jobs = 1) () = Parallel.map ~jobs run_one Scenario.all

let print rows =
  Series.table
    ~header:[ "scenario"; "cpus"; "events"; "failures"; "skipped"; "ops/s" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.ncpus;
           string_of_int r.events;
           string_of_int r.result.Workload.Trace.failures;
           string_of_int r.result.Workload.Trace.skipped_frees;
           Series.sci r.ops_per_sec;
         ])
       rows)

let print_highlights () =
  List.iter
    (fun (sc : Scenario.t) ->
      match sc.Scenario.target with
      | None -> ()
      | Some target ->
          let t = sc.Scenario.generate ~seed:sc.Scenario.default_seed in
          let report =
            Scenario.Pathology.analyze ~name:sc.Scenario.name t
          in
          let hit =
            List.exists
              (fun (f : Scenario.Pathology.finding) ->
                f.Scenario.Pathology.pathology = target)
              report.Scenario.Pathology.findings
          in
          Printf.printf "%-18s target %-22s -> %s (%d finding(s))\n"
            sc.Scenario.name target
            (if hit then "detected" else "NOT DETECTED")
            (List.length report.Scenario.Pathology.findings))
    Scenario.all
