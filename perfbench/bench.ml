(* bench.exe --workload sweep|serve|exact --seed N --seconds S --trace 0|1
             [--double-rec-mii]

   Untraced runs (--trace 0) print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer table. The last stdout line is the
   result object; everything before it is for people. *)

(* Every per-layer metric, in table order. A workload reports 0 for a
   layer it never calls. *)
let per_layer =
  List.map (fun l -> (l ^ "_ms", "ms")) Layers.pipeline_layers
  @ [ ("unattributed_ms", "ms"); ("partition.pipeline_ms", "ms") ]
  @ List.map (fun c -> (c, "count"))
      [ "ddg.edges"; "sched.placements"; "sched.evictions"; "sched.iis_tried"; "partition.copies" ]
  @ Serve_wl.per_layer @ Exact_wl.per_layer
  @ [ ("trace.overhead_ratio", "ratio") ]

let print_table metrics =
  Measure.say "%-28s %16s  %s" "per-layer metric" "value" "unit";
  List.iter
    (fun (m : Measure.metric) -> Measure.say "%-28s %16.4f  %s" m.name m.value m.unit_)
    metrics

let complete metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Measure.metric) -> m.name = name) metrics with
      | Some m -> m
      | None -> Measure.metric name unit_ 0.0)
    per_layer

(* Work counts are deterministic: they must repeat exactly across runs. *)
let gate_counts ~key metrics =
  let counts =
    List.filter_map
      (fun (m : Measure.metric) ->
        if m.unit_ = "count" then Some (Printf.sprintf "%s=%s" m.name (Measure.json_number m.value))
        else None)
      metrics
  in
  Gate.passes ~key:(key ^ "-counts") [ counts ]

let () =
  let workload = ref "" and seed = ref Inputs.paper_seed and seconds = ref 10.0 in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "sweep|serve|exact");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1995)");
      ("--seconds", Arg.Set_float seconds, "S  measurement window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ( "--double-rec-mii",
        Arg.Set Layers.double_rec_mii,
        "  call Ddg.Minii.rec_mii twice wherever the pipeline calls it (sensitivity self-test; sweep only)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  if !Layers.double_rec_mii && !workload <> "sweep" then begin
    prerr_endline "bench: --double-rec-mii applies to the sweep workload only";
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  let key = Printf.sprintf "%s-%d" !workload seed in
  let result =
    if !trace = 0 then
      let metrics, attempted, failed =
        match !workload with
        | "sweep" -> Sweep.run ~seed ~seconds ~warmup:12 ~setups:5
        | "serve" -> Serve_wl.run ~seed ~seconds ~warmup:6 ~setups:9
        | "exact" -> Exact_wl.run ~seed ~seconds ~warmup:6 ~setups:5
        | w ->
            prerr_endline ("bench: unknown workload " ^ w);
            exit 2
      in
      List.iter
        (fun (m : Measure.metric) -> Measure.say "%-20s %14.4f %s" m.name m.value m.unit_)
        metrics;
      { Measure.correct = Gate.ok (); attempted; failed; metrics }
    else
      let metrics, attempted, failed =
        match !workload with
        | "sweep" ->
            let t, ops, wall, failed = Sweep.traced ~seed in
            let real = Layers.time_of t "partition.pipeline" in
            ( Layers.pipeline_metrics t ~ops
              @ [ Measure.metric "trace.overhead_ratio" "ratio" (wall /. real) ],
              ops,
              failed )
        | "serve" -> Serve_wl.traced ~seed ~warmup:6
        | "exact" -> Exact_wl.traced ~seed
        | w ->
            prerr_endline ("bench: unknown workload " ^ w);
            exit 2
      in
      gate_counts ~key metrics;
      let metrics = complete metrics in
      print_table metrics;
      { Measure.correct = Gate.ok (); attempted; failed; metrics }
  in
  print_endline (Measure.result_line result)
