(* Outside-in attribution: the benchmark times its own calls into each
   library's public functions and sums the work counts those functions
   already return. Nothing inside lib/ is instrumented. *)

(* Wall-clock totals per layer and integer work counts, keyed by the
   per-layer metric name they feed. *)
type t = { times : (string, float) Hashtbl.t; counts : (string, int) Hashtbl.t }

let create () = { times = Hashtbl.create 32; counts = Hashtbl.create 32 }

let add_time t name dt =
  Hashtbl.replace t.times name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt t.times name))

let count t name n =
  Hashtbl.replace t.counts name (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let time_of t name = Option.value ~default:0.0 (Hashtbl.find_opt t.times name)
let count_of t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

(* [--double-rec-mii]: the sensitivity self-test's synthetic 2x
   slowdown. Every Ddg.Minii.rec_mii the pipeline makes — inside
   Ddg.Minii.min_ii and inside Sched.Modulo.clustered_mii — is matched
   by one more call on the same DDG, from outside the library. *)
let double_rec_mii = ref false

let extra_rec_mii ddg = if !double_rec_mii then ignore (Ddg.Minii.rec_mii ddg)

let timed t name f =
  let r, dt = Measure.timed f in
  add_time t name dt;
  r

(* The calls Partition.Driver.pipeline makes, in its order, under the
   per-layer names. *)
let pipeline_layers =
  [ "ddg.build"; "ddg.min_ii"; "sched.ideal"; "rcg.build"; "partition.greedy";
    "partition.copies"; "ddg.rebuild"; "sched.clustered_mii"; "sched.clustered" ]

type compiled = { ideal_ii : int; clustered_ii : int; copies : int }

let sched_counts t (o : Sched.Modulo.outcome) =
  count t "sched.placements" o.Sched.Modulo.placements_tried;
  count t "sched.evictions" o.Sched.Modulo.evictions;
  count t "sched.iis_tried" o.Sched.Modulo.iis_tried

(* [Partition.Driver.pipeline ~machine loop] with the default greedy
   partitioner and Rau scheduler, re-composed from the public calls it
   makes, each timed. [None] where the real call would fail. *)
let recompose t ~(machine : Mach.Machine.t) loop =
  let m = machine in
  let ddg = timed t "ddg.build" (fun () -> Ddg.Graph.of_loop ~latency:m.latency loop) in
  count t "ddg.edges" (Graphlib.Digraph.edge_count (Ddg.Graph.graph ddg));
  let mii =
    timed t "ddg.min_ii" (fun () ->
        extra_rec_mii ddg;
        Ddg.Minii.min_ii ~width:(Mach.Machine.width m) ddg)
  in
  match
    timed t "sched.ideal" (fun () ->
        Sched.Modulo.schedule ~machine:(Mach.Machine.monolithic_of m) ~mii ddg)
  with
  | None -> None
  | Some ideal -> (
      sched_counts t ideal;
      let weights = Rcg.Weights.default in
      let rcg =
        timed t "rcg.build" (fun () ->
            Rcg.Build.build ~weights
              (Rcg.Build.source_of_kernel ~ddg ~depth:(Ir.Loop.depth loop)
                 ideal.Sched.Modulo.kernel))
      in
      let assignment =
        timed t "partition.greedy" (fun () ->
            Partition.Greedy.partition ~weights ~banks:m.clusters rcg)
      in
      let assignment =
        Ir.Vreg.Set.fold
          (fun r acc -> if Ir.Vreg.Map.mem r acc then acc else Ir.Vreg.Map.add r 0 acc)
          (Ir.Loop.vregs loop) assignment
      in
      let ins =
        timed t "partition.copies" (fun () ->
            Partition.Copies.insert_loop ~machine:m ~assignment loop)
      in
      count t "partition.copies" ins.Partition.Copies.n_copies;
      let ddg' =
        timed t "ddg.rebuild" (fun () ->
            Ddg.Graph.of_loop ~latency:m.latency ins.Partition.Copies.loop)
      in
      match Partition.Driver.cluster_map ins.Partition.Copies.assignment ins.Partition.Copies.loop with
      | Error _ -> None
      | Ok cluster_of -> (
          let cmii =
            timed t "sched.clustered_mii" (fun () ->
                extra_rec_mii ddg';
                Sched.Modulo.clustered_mii ~machine:m
                  ~ops_per_cluster:ins.Partition.Copies.ops_per_cluster
                  ~copies_per_cluster:ins.Partition.Copies.copies_per_cluster ddg')
          in
          match
            timed t "sched.clustered" (fun () ->
                Sched.Modulo.schedule ~cluster_of ~machine:m ~mii:cmii ddg')
          with
          | None -> None
          | Some clustered ->
              sched_counts t clustered;
              Some
                {
                  ideal_ii = ideal.Sched.Modulo.ii;
                  clustered_ii = clustered.Sched.Modulo.ii;
                  copies = ins.Partition.Copies.n_copies;
                }))

let of_result (r : Partition.Driver.result) =
  {
    ideal_ii = r.Partition.Driver.ideal.Sched.Modulo.ii;
    clustered_ii = r.Partition.Driver.clustered.Sched.Modulo.ii;
    copies = r.Partition.Driver.n_copies;
  }

(* Time the real pipeline call under [partition.pipeline], then its
   re-composition; the two must agree, or the attribution is void. *)
let pipeline_checked t ~machine loop =
  let real = timed t "partition.pipeline" (fun () -> Partition.Driver.pipeline ~machine loop) in
  let again = recompose t ~machine loop in
  let agree =
    match (real, again) with
    | Ok r, Some c -> of_result r = c
    | Error _, None -> true
    | _ -> false
  in
  (real, agree)

(* Per-operation milliseconds of every pipeline layer, plus the real
   call's time the layers do not cover. *)
let pipeline_metrics t ~ops =
  let per name = 1000.0 *. time_of t name /. float_of_int (max 1 ops) in
  let layers = List.map (fun l -> Measure.metric (l ^ "_ms") "ms" (per l)) pipeline_layers in
  let covered = List.fold_left (fun acc l -> acc +. per l) 0.0 pipeline_layers in
  layers
  @ [
      Measure.metric "unattributed_ms" "ms" (per "partition.pipeline" -. covered);
      Measure.metric "partition.pipeline_ms" "ms" (per "partition.pipeline");
    ]
  @ List.map
      (fun c -> Measure.metric c "count" (float_of_int (count_of t c)))
      [ "ddg.edges"; "sched.placements"; "sched.evictions"; "sched.iis_tried"; "partition.copies" ]

(* The untraced path's [--double-rec-mii]: the two extra rec_mii calls
   of one compile, on DDGs built before the timed window. *)
let extra_rec_mii_call ~(machine : Mach.Machine.t) loop =
  let of_loop = Ddg.Graph.of_loop ~latency:machine.latency in
  let ddg = of_loop loop in
  let rebuilt =
    match Partition.Driver.pipeline ~machine loop with
    | Ok r -> Some (of_loop r.Partition.Driver.rewritten)
    | Error _ -> None
  in
  fun () ->
    ignore (Ddg.Minii.rec_mii ddg);
    Option.iter (fun d -> ignore (Ddg.Minii.rec_mii d)) rebuilt
