(* The run's figures: end-to-end metrics from the rounds of an untraced run,
   the per-layer table of a traced run, and the final JSON line. *)

open Halo
open Stages

let sum = List.fold_left ( +. ) 0.0

(* Peak resident memory of this process, from the kernel's high-water mark. *)
let peak_mem_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* A count must read the same in every round: FHE control flow does not
   depend on the data. *)
let same_every_round name f rounds =
  match List.sort_uniq compare (List.map f rounds) with
  | [ v ] -> v
  | _ ->
    Check.record (Error (name ^ " differs between rounds"));
    nan

(* The timed end-to-end metrics, in seconds at reference speed or, with
   [~raw], as measured. *)
let timings ?(raw = false) () =
  let requests = all_samples ~raw "exec_s" in
  let value = value ~raw in
  [
    ("setup_s", "s", value "setup_s");
    ("exec_s", "s", value "exec_s");
    ("req_p50_ms", "ms", 1000.0 *. median_of_keys ~raw "exec_s");
    ("req_per_s", "1/s", float_of_int (List.length requests) /. sum requests);
    ("compile_s", "s", value "compile_s");
    ("baseline_compile_s", "s", value "baseline_compile_s");
    ("tune_s", "s", value "tune_s");
    ("sim_s", "s", value "sim_s");
  ]

let end_to_end rounds =
  let count name f = same_every_round name f rounds in
  timings ()
  @ [
      ("bootstraps", "count", count "bootstraps" (fun r -> float_of_int r.bootstraps));
      ( "key_switches",
        "count",
        count "key_switches" (fun r -> float_of_int r.key_switches) );
      ("modeled_s", "model_s", count "modeled_s" (fun r -> r.modeled_s));
      ("code_kb", "KiB", count "code_kb" (fun r -> r.code_kb));
      ("peak_mem_mb", "MB", peak_mem_mb ());
    ]

(* The machine's speed over the run: how many calibration units were
   measured and their median, against [Calib.reference_s]. *)
let calibration () =
  let us = !Calib.units in
  Printf.sprintf
    "calibration: %d units, median %.2f ms (reference %.2f ms): timings are \
     scaled by %.3f on the median"
    (List.length us) (1000.0 *. median us) (1000.0 *. Calib.reference_s)
    (Calib.reference_s /. median us)

(* The request-latency tail over all requests pooled: the highest
   percentile with at least ten samples beyond it, or none below forty
   samples. *)
let tail () =
  let xs = Array.of_list (all_samples "exec_s") in
  Array.sort compare xs;
  let n = Array.length xs in
  let p50 = 1000.0 *. median (Array.to_list xs) in
  if n < 40 then
    Printf.sprintf "requests pooled: n=%d p50=%.2f ms (no tail below 40 samples)" n p50
  else begin
    let p = 100 * (n - 10) / n in
    let idx = max 0 ((p * n / 100) - 1) in
    Printf.sprintf "requests pooled: n=%d p50=%.2f ms p%d=%.2f ms" n p50 p
      (1000.0 *. xs.(idx))
  end

(* ---- per-layer table ---- *)

let pass_names strategy =
  List.map (fun (p : Strategy.pass) -> p.pass_name) (Strategy.passes ~strategy ())

let phases = [ "setup"; "compile"; "tune"; "sim"; "exec" ]

let per_layer_names () =
  let map f xs = List.map f xs in
  let halo = pass_names Strategy.Halo and dacapo = pass_names Strategy.Dacapo in
  map (fun p -> ("pass.halo." ^ p ^ ".s", "s")) halo
  @ map (fun p -> ("pass.halo." ^ p ^ ".instrs", "count")) halo
  @ map (fun p -> ("pass.dacapo." ^ p ^ ".s", "s")) dacapo
  @ [
      ("tune.compiles", "count");
      ("tune.evaluated", "count");
      ("tune.pruned", "count");
      ("interp.self_s", "s");
    ]
  @ List.concat_map
      (fun op -> [ ("lattice." ^ op ^ ".s", "s"); ("lattice." ^ op ^ ".n", "count") ])
      Timed.ops
  @ map (fun op -> ("ref." ^ op ^ ".s", "s")) Timed.ops
  @ [
      ("keys.keygen_s", "s");
      ("keys.rotkey_s", "s");
      ("keys.rotkey.n", "count");
      ("keys.hits", "count");
      ("keys.misses", "count");
      ("keys.digit_hits", "count");
    ]
  @ map
      (fun s -> ("stats." ^ s, "count"))
      [
        "rotate"; "multcc"; "rescale"; "hoisted_groups"; "decompositions_saved";
        "digit_reuses"; "lazy_rotsums";
      ]
  @ map (fun op -> ("costmodel." ^ op ^ ".off_by", "x")) Timed.priced_ops
  @ List.concat_map
      (fun ph ->
        [
          ("gc." ^ ph ^ ".minor_mwords", "Mwords");
          ("gc." ^ ph ^ ".major_collections", "count");
        ])
      phases
  @ [ ("gc.top_heap_mb", "MB"); ("trace.exec_s", "s"); ("trace.coverage", "ratio") ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The [host] cost-model price of an op class over its measured time on the
   lattice backend; 0 where the class did not run. *)
let pred_over_meas op =
  ratio
    (Trace.get ("costmodel." ^ op ^ ".pred_us") /. 1e6)
    (Trace.get ("costmodel." ^ op ^ ".meas_s"))

(* Share of the execution wall time, measured around each interpreter run,
   that backend-op time plus interpreter self time accounts for. *)
let coverage () =
  let layer = if Trace.get "wall.lattice_s" > 0.0 then "lattice" else "ref" in
  let ops = sum (List.map (fun op -> Trace.get (layer ^ "." ^ op ^ ".s")) Timed.ops) in
  ratio
    (ops +. Trace.get ("interp." ^ layer ^ ".self_s"))
    (Trace.get ("wall." ^ layer ^ "_s"))

let per_layer rounds =
  let n = float_of_int (List.length rounds) in
  let value name =
    let under prefix = String.starts_with ~prefix name in
    if under "pass.halo." then ratio (Trace.get name) (Trace.get "compile_sets.halo")
    else if under "pass.dacapo." then
      ratio (Trace.get name) (Trace.get "compile_sets.dacapo")
    else if under "costmodel." then
      (* The factor the model is off by, either way: 1 is exact. *)
      let r = pred_over_meas (List.nth (String.split_on_char '.' name) 1) in
      if r > 0.0 then Float.max r (1.0 /. r) else 0.0
    else
      match name with
      | "gc.top_heap_mb" ->
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0
      | "trace.exec_s" -> value "exec_s"
      | "trace.coverage" -> coverage ()
      | _ -> Trace.get name /. n
  in
  List.map (fun (name, unit) -> (name, unit, value name)) (per_layer_names ())

(* ---- output ---- *)

let json ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
