(* End-to-end benchmark of the HALO compiler and its RNS-CKKS runtime.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs whole rounds of the workload until S seconds have passed (at least
   two rounds), checks every output, and prints as its last line one JSON
   object: [correct], [attempted], [failed] and the metrics — the
   end-to-end ones with --trace 0, the per-layer table with --trace 1.  A
   traced run also writes its spans to .perfbench_out/.  Exits 1 when a
   check fails.  See perfbench/README.md. *)

open Perfbench_lib

(* The program's knobs, pinned so a variable exported in the caller's shell
   cannot change what is measured; the GC settings are left at their
   defaults for the same reason. *)
let knobs =
  [
    ("HALO_DOMAINS", "1");
    ("HALO_KEY_BUDGET", "0");
    ("HALO_DIGIT_CACHE", "1");
    ("HALO_EAGER_SWITCH", "0");
    ("HALO_COST_PROFILE", "paper-gpu");
    ("HALO_GUARD_MARGIN", "10");
  ]

let cleared = [ "OCAMLRUNPARAM"; "CAMLRUNPARAM" ]

(* Several knobs are read once at module initialisation, so a mismatch is
   fixed by re-executing this program with the pinned environment. *)
let pin_knobs () =
  let pinned (k, v) = Sys.getenv_opt k = Some v in
  if not (List.for_all pinned knobs && List.for_all (fun k -> Sys.getenv_opt k = None) cleared)
  then begin
    if Sys.getenv_opt "PERFBENCH_PINNED" <> None then failwith "knobs did not pin";
    let keep entry =
      match String.index_opt entry '=' with
      | Some i ->
        let k = String.sub entry 0 i in
        not (List.mem_assoc k knobs || List.mem k cleared)
      | None -> true
    in
    let env =
      List.filter keep (Array.to_list (Unix.environment ()))
      @ List.map (fun (k, v) -> k ^ "=" ^ v) knobs
      @ [ "PERFBENCH_PINNED=1" ]
    in
    Unix.execve Sys.executable_name Sys.argv (Array.of_list env)
  end

let min_rounds = 2
let out_dir = ".perfbench_out"

let run ~workload ~seed ~seconds ~trace =
  let w =
    match Workloads.find ~seed workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" workload
        (String.concat ", " Workloads.names);
      exit 2
  in
  Trace.tracing := trace;
  Printf.printf "perfbench: workload=%s seed=%d seconds=%d trace=%d\n" w.Workloads.id
    seed seconds (Bool.to_int trace);
  Printf.printf "knobs: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) knobs));
  Printf.printf "why: %s\nconfig: %s\n%!" w.why w.config;
  let origin = Trace.now () in
  (* Whole rounds until the next one would end further from [seconds] than
     stopping now does. *)
  let rec loop round acc =
    let elapsed = Trace.now () -. origin in
    let per_round = elapsed /. float_of_int (max 1 (round - 1)) in
    if round > min_rounds && elapsed +. (per_round /. 2.0) >= float_of_int seconds
    then List.rev acc
    else begin
      (* Every round starts from a compacted heap: the previous round's key
         set and programs are gone before anything is timed. *)
      Gc.compact ();
      let t0 = Trace.now () in
      let r = Trace.span "round" (fun () -> w.round ~seed ~round) in
      Printf.printf "round %d: %.2f s\n%!" round (Trace.now () -. t0);
      loop (round + 1) (r :: acc)
    end
  in
  let rounds = loop 1 [] in
  let attempted = List.fold_left (fun a (r : Stages.round) -> a + r.attempted) 0 rounds in
  let failed = List.fold_left (fun a (r : Stages.round) -> a + r.failed) 0 rounds in
  Printf.printf "rounds: %d in %.1f s; operations attempted %d, failed %d\n"
    (List.length rounds) (Trace.now () -. origin) attempted failed;
  List.iter
    (fun (name, site) -> Printf.printf "failed: %s at %s\n" name site)
    (List.sort compare
       (List.of_seq (Hashtbl.to_seq Workloads.failure_sites)));
  Printf.printf "%s\n" (Report.tail ());
  let metrics =
    if trace then Report.per_layer rounds
    else Report.end_to_end rounds
  in
  List.iter
    (fun (name, unit, v) ->
      if not (Float.is_finite v) then
        Check.record (Error (Printf.sprintf "%s is not finite (%s)" name unit)))
    metrics;
  let metrics =
    List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics
  in
  List.iter
    (fun what ->
      let worst, bound = Hashtbl.find Check.observed what in
      Printf.printf "checked: %-36s worst error %.2e (bound %.0e)\n" what worst bound)
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) Check.observed []));
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev !Check.errors);
  if trace then begin
    List.iter
      (fun (name, unit, v) -> Printf.printf "layer: %-44s %14.6g %s\n" name v unit)
      metrics;
    List.iter
      (fun op ->
        let r = Report.pred_over_meas op in
        if r > 0.0 then Printf.printf "costmodel: %-12s predicted/measured %.3g\n" op r)
      Timed.priced_ops;
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir w.id seed in
    let n = Trace.write_spans ~origin path in
    Printf.printf "spans: %d written to %s\n" n path
  end
  else begin
    List.iter (fun (name, unit, v) -> Printf.printf "metric: %-20s %14.6g %s\n" name v unit) metrics;
    List.iter
      (fun (name, unit, v) -> Printf.printf "raw:    %-20s %14.6g %s as measured\n" name v unit)
      (Report.timings ~raw:true ())
  end;
  Printf.printf "%s\n" (Report.calibration ());
  let correct = !Check.errors = [] in
  print_endline (Report.json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

let () =
  pin_knobs ();
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed every input derives from");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
