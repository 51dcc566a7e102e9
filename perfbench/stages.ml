(* The stages every workload runs each round, one program at a time: set-up,
   compile (HALO and the DaCapo baseline), tune, simulate on [Ref_backend]
   and execute on the workload's execution backend. *)

open Halo
module Keys = Halo_ckks.Keys
module Params = Halo_ckks.Params
module Stats = Halo_runtime.Stats
module Tuner = Halo_tune.Tuner

let now = Trace.now

type prog = {
  name : string;
  source : Ir.program;
  bindings : (string * int) list;
  inputs : seed:int -> (string * float array) list;
  reference : (string * float array) list -> float array list;
      (** cleartext computation made apart from the compiler and backends *)
  error : expected:float array list -> actual:float array list -> float;
  ref_bound : float;  (** bound on [error] for a [Ref_backend] run *)
  lattice_bound : float;  (** bound on [error] for a [Lattice_backend] run *)
}

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- samples ---- *)

(* A timed interval: raw seconds, and seconds at reference speed. *)
type timing = Calib.timing = { raw : float; norm : float }

let time = Calib.time
let no_time = { raw = 0.0; norm = 0.0 }
let add_time a b = { raw = a.raw +. b.raw; norm = a.norm +. b.norm }

(* Every timing is a sample of one end-to-end metric for one key: a program,
   or a request's place in its round.  A metric's value is the sum over its
   keys of the median sample.  The stages run one program at a time, so the
   samples of one metric come from moments spread over the whole run, and no
   single slow spell of the machine sets the figure. *)
let samples : (string * string, timing list ref) Hashtbl.t = Hashtbl.create 64

let sample metric ~key t =
  match Hashtbl.find_opt samples (metric, key) with
  | Some r -> r := t :: !r
  | None -> Hashtbl.add samples (metric, key) (ref [ t ])

(* [f] run [reps] times; the last result. *)
let rec repeat ~reps f =
  let r = f () in
  if reps <= 1 then r else repeat ~reps:(reps - 1) f

let timed metric ~key f =
  let r, t = time f in
  sample metric ~key t;
  r

(* The median sample of each of a metric's keys, in seconds at reference
   speed or, with [~raw], as measured. *)
let key_medians ?(raw = false) metric =
  Hashtbl.fold
    (fun (m, _) r acc ->
      if m = metric then
        median (List.map (fun t -> if raw then t.raw else t.norm) !r) :: acc
      else acc)
    samples []

(* A metric's value: the sum over its keys. *)
let value ?raw metric = List.fold_left ( +. ) 0.0 (key_medians ?raw metric)

(* The median over a metric's keys: the median request of a workload whose
   keys are requests of one shape, without the jump between clusters a
   pooled median makes when the keys are different programs. *)
let median_of_keys ?raw metric = median (key_medians ?raw metric)

let all_samples ?(raw = false) metric =
  Hashtbl.fold
    (fun (m, _) r acc ->
      if m = metric then List.map (fun t -> if raw then t.raw else t.norm) !r @ acc
      else acc)
    samples []

(* ---- compile ---- *)

(* An untimed compile, for the programs set-up and the failing attempts
   need. *)
let compile_quiet ~strategy p =
  Strategy.compile ~bindings:p.bindings ~strategy p.source

(* In a traced run the [?observer] hook of [Strategy.compile] times every
   pass (the interval since the previous pass ended) and counts the IR
   instructions it leaves, under "pass.<strategy>.<pass>.*". *)
let compile ~strategy p =
  let tag =
    match strategy with
    | Strategy.Halo -> Some "halo"
    | Strategy.Dacapo -> Some "dacapo"
    | _ -> None
  in
  match tag with
  | Some tag when !Trace.tracing ->
    let last = ref (now ()) in
    let observer ~(pass : Strategy.pass) ~before:_ ~after =
      let key = Printf.sprintf "pass.%s.%s" tag pass.pass_name in
      Trace.add (key ^ ".s") (now () -. !last);
      if tag = "halo" then
        Trace.add (key ^ ".instrs") (float_of_int (Ir.count_ops after.Ir.body));
      last := now ()
    in
    Trace.span ("compile." ^ tag) (fun () ->
        Strategy.compile ~bindings:p.bindings ~observer ~strategy p.source)
  | _ -> compile_quiet ~strategy p

let compile_checked ~strategy p =
  let c = compile ~strategy p in
  Check.record
    (Check.typechecks ~what:(p.name ^ "/" ^ Strategy.to_string strategy) c);
  c

(* [reps] timed compiles of [p] under HALO ([compile_s]) and under DaCapo
   ([baseline_compile_s]); the last of each.  [set] is the size of the
   workload's program set, so the per-pass table reads per set. *)
let compile_step ~reps ~set p =
  Trace.phase "compile" (fun () ->
      let compile_as metric strategy =
        Trace.add
          ("compile_sets." ^ Strategy.to_string strategy)
          (float_of_int reps /. float_of_int set);
        repeat ~reps (fun () ->
            timed metric ~key:p.name (fun () -> compile_checked ~strategy p))
      in
      let halo = compile_as "compile_s" Strategy.Halo in
      (halo, compile_as "baseline_compile_s" Strategy.Dacapo))

(* ---- tune ---- *)

(* [reps] timed [Tuner.tune] searches of [p] ([tune_s]), checked.  The
   search counters of the last are added to the per-layer table unless
   [count] is false (a workload that tunes a program several times a round
   counts one search). *)
let tune_step ?(count = true) ~reps p =
  Trace.phase "tune" (fun () ->
      for rep = 1 to reps do
        let r, tuned =
          timed "tune_s" ~key:p.name (fun () ->
              Trace.span "tuner.tune" (fun () ->
                  Tuner.tune ~bindings:p.bindings ~name:p.name p.source))
        in
        Check.record (Check.tuned_not_worse ~what:(p.name ^ "/tuned") r);
        Check.record (Check.typechecks ~what:(p.name ^ "/tuned") tuned);
        if count && rep = reps then begin
          Trace.add "tune.compiles" (float_of_int r.Tuner.r_compiles);
          Trace.add "tune.evaluated" (float_of_int r.r_evaluated);
          Trace.add "tune.pruned" (float_of_int r.r_pruned)
        end
      done)

(* ---- execute ---- *)

type run = { wall : timing; stats : Stats.t }

let ref_state ~seed (prog : Ir.program) =
  Halo_ckks.Ref_backend.create ~seed ~slots:prog.slots ~max_level:prog.max_level
    ~scale_bits:51 ()

(* One encrypt -> execute -> decrypt on [Ref_backend], checked. *)
let simulate ~seed ~what p compiled =
  let inputs = p.inputs ~seed in
  let st = ref_state ~seed:(seed + 17) compiled in
  let (outs, stats), wall =
    time (fun () -> Timed.run_ref st ~bindings:p.bindings ~inputs compiled)
  in
  Trace.add "wall.ref_s" wall.raw;
  let err = p.error ~expected:(p.reference inputs) ~actual:outs in
  Check.record (Check.within ~what:(what ^ " on ref") ~bound:p.ref_bound err);
  { wall; stats }

(* One encrypt -> execute -> decrypt on [Lattice_backend], checked. *)
let execute ~keys ~seed p compiled =
  let inputs = p.inputs ~seed in
  let (outs, stats), wall =
    time (fun () ->
        Trace.span ("request." ^ p.name) (fun () ->
            Timed.run_lattice keys ~bindings:p.bindings ~inputs compiled))
  in
  Trace.add "wall.lattice_s" wall.raw;
  let err = p.error ~expected:(p.reference inputs) ~actual:outs in
  Check.record
    (Check.within ~what:(p.name ^ " on lattice") ~bound:p.lattice_bound err);
  { wall; stats }

(* ---- lattice set-up ---- *)

let log_n = 11
let max_level = 16

(* Parameter generation, key generation and every rotation key the
   compiled programs name, so no execution pays for key generation
   ([setup_s]). *)
let lattice_setup ~seed compiled =
  Trace.phase "setup" (fun () ->
      timed "setup_s" ~key:"" (fun () ->
          let params =
            Params.make ~log_n ~max_level ~base_bits:31 ~scale_bits:27 ()
          in
          let t0 = now () in
          let keys =
            Trace.span "keys.keygen" (fun () -> Keys.keygen ~seed params)
          in
          let t1 = now () in
          let offsets =
            List.sort_uniq compare (List.concat_map Rotations.required compiled)
          in
          List.iter
            (fun offset ->
              Trace.span "keys.rotation_key" (fun () ->
                  ignore (Keys.rotation_key keys ~offset)))
            offsets;
          Trace.add "keys.keygen_s" (t1 -. t0);
          Trace.add "keys.rotkey_s" (now () -. t1);
          Trace.add "keys.rotkey.n" (float_of_int (List.length offsets));
          Keys.reset_cache_stats keys;
          keys))

(* ---- per-round counts ---- *)

(* The counts of one round; each must read the same in every round. *)
type round = {
  bootstraps : int;
  key_switches : int;
  modeled_s : float;  (** cost-model latency, [paper_gpu] profile *)
  code_kb : float;
  attempted : int;
  failed : int;
}

let sum_stats f (runs : run list) =
  List.fold_left (fun acc r -> acc + f r.stats) 0 runs

(* Counters of a round's executions on the workload's backend, for the
   per-layer table. *)
let record_stats (runs : run list) =
  List.iter
    (fun (name, f) -> Trace.add ("stats." ^ name) (float_of_int (sum_stats f runs)))
    [
      ("rotate", fun (s : Stats.t) -> s.rotate);
      ("multcc", fun s -> s.multcc);
      ("rescale", fun s -> s.rescale);
      ("hoisted_groups", fun s -> s.hoisted_groups);
      ("decompositions_saved", fun s -> s.decompositions_saved);
      ("digit_reuses", fun s -> s.digit_reuses);
      ("lazy_rotsums", fun s -> s.lazy_rotsums);
    ]

(* The counts of a round: [runs] are the executions of the HALO programs
   [compiled]. *)
let counts ~compiled ~attempted ~failed (runs : run list) =
  let bytes =
    List.fold_left (fun acc c -> acc + Printer.code_size_bytes c) 0 compiled
  in
  {
    bootstraps = sum_stats (fun s -> s.bootstrap) runs;
    key_switches = sum_stats (fun s -> s.key_switches) runs;
    modeled_s =
      List.fold_left (fun acc r -> acc +. r.stats.total_latency_us) 0.0 runs
      /. 1e6;
    code_kb = float_of_int bytes /. 1024.0;
    attempted;
    failed;
  }

(* Key-cache counters of a round's lattice executions; the digit reuses are
   also folded into the first run's [Stats], so call this before
   [record_stats]. *)
let record_key_cache keys (runs : run list) =
  let s = Keys.cache_stats keys in
  Trace.add "keys.hits" (float_of_int s.Keys.snap_hits);
  Trace.add "keys.misses" (float_of_int s.snap_misses);
  Trace.add "keys.digit_hits" (float_of_int s.snap_digit_hits);
  match runs with
  | r :: _ -> Halo_runtime.Lattice_backend.fold_cache_stats keys r.stats
  | [] -> ()
