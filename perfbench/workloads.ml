(* The two workloads.  Each round runs every stage of [Stages] over the
   workload's own programs; what differs is the programs and where the time
   goes.

   - train-lattice: the paper's programs.  Linear and Multivariate training,
     HALO-compiled, run on real RLWE ciphertexts; all seven compiled under
     the five strategies, tuned, and simulated on [Ref_backend].  Each round
     also attempts Polynomial, Logistic, K-means and SVM on the lattice,
     which fail today with a scale mismatch; they count as failed operations
     and stay out of every timed and counted figure.  PCA does not run on
     the lattice: on some inputs its result there is a few percent off (see
     README.md).
   - infer-lattice: one client in a closed loop sending inference requests
     through a HALO-compiled stack of diagonal-form matrix-vector products
     with plaintext weights and bands of 2, 4 and 8. *)

open Halo
open Stages
module Bench_def = Halo_ml.Bench_def
module Ml = Halo_ml.Workloads

(* ---- program sets ---- *)

let slots = 1 lsl (log_n - 1)

(* Error bounds on the worst per-output RMSE against
   [Bench_def.reference]: on [Ref_backend] the repository's own ML test
   bounds (programs with approximated functions carry the approximation
   error); on the lattice, whose 27-bit scale leaves less precision, ten
   times the worst error seen over the seeds in README.md. *)
let paper_prog ?(slots = slots) ~size ~iters (b : Bench_def.t) =
  let bindings = Ml.default_bindings b ~iters in
  let lens = b.output_len ~size in
  let exact = b.approx = [] in
  {
    name = b.name;
    source = b.build ~slots ~size;
    bindings;
    inputs = (fun ~seed -> b.gen_inputs ~seed ~size);
    reference = (fun inputs -> b.reference ~size ~bindings ~inputs);
    error = Check.worst_rmse ~lens;
    ref_bound = (if exact then 1e-3 else 2e-2);
    lattice_bound = (if exact then 1e-2 else 2e-2);
  }

(* Diagonal-form matrix-vector stack: [layers] loop iterations, each
   applying one banded matrix per entry of [bands] to a [dim]-vector
   replicated across the slots.  Band [g] has diagonals 0 .. g-1, so band
   [dim] is a dense matrix. *)
module Matvec = struct
  let dim = 8
  let bands = [ 2; 4; 8 ]
  let layers = 3
  let weight_name l j = Printf.sprintf "w%d_%d" l j

  let source ~slots =
    Dsl.build ~name:"matvec-stack" ~slots ~max_level (fun b ->
        let x = Dsl.input b "x" ~size:dim in
        let weights =
          List.mapi
            (fun l g ->
              List.init g (fun j ->
                  Dsl.input b ~status:Ir.Plain (weight_name l j) ~size:dim))
            bands
        in
        let count = Ir.Dyn { name = "layers"; add = 0; div = 1; rem = false } in
        match
          Dsl.for_ b ~count ~init:[ x ] (fun b -> function
            | [ v ] ->
              [
                List.fold_left
                  (fun v diags -> Linalg.matvec_diag b ~diags v)
                  v weights;
              ]
            | _ -> assert false)
        with
        | [ y ] -> Dsl.output b y
        | _ -> assert false)

  let uniform st = Random.State.float st 2.0 -. 1.0

  (* Entries scaled by sqrt(3/g) keep the expected vector norm per layer. *)
  let weights ~seed =
    let st = Random.State.make [| 0x3a7e; seed |] in
    List.concat
      (List.mapi
         (fun l g ->
           let s = sqrt (3.0 /. float_of_int g) in
           List.init g (fun j ->
               (weight_name l j, Array.init dim (fun _ -> s *. uniform st))))
         bands)

  let request ~seed =
    let st = Random.State.make [| 0x1e9; seed |] in
    ("x", Array.init dim (fun _ -> uniform st))

  (* The benchmark's own cleartext product: y[f] = sum_{j<g} w_j[f] v[f+j]. *)
  let reference weights inputs =
    let x = List.assoc "x" inputs in
    let layer v l g =
      Array.init dim (fun f ->
          let acc = ref 0.0 in
          for j = 0 to g - 1 do
            let w = List.assoc (weight_name l j) weights in
            acc := !acc +. (w.(f) *. v.((f + j) mod dim))
          done;
          !acc)
    in
    let v = ref x in
    for _ = 1 to layers do
      List.iteri (fun l g -> v := layer !v l g) bands
    done;
    [ !v ]

  let prog ?(slots = slots) ~seed () =
    let weights = weights ~seed in
    {
      name = "matvec";
      source = source ~slots;
      bindings = [ ("layers", layers) ];
      inputs = (fun ~seed -> request ~seed :: weights);
      reference = reference weights;
      error = Check.worst_abs ~len:dim;
      ref_bound = 1e-3;
      lattice_bound = 1e-3;
    }
end

(* ---- workload parameters ---- *)

let train_size = 8

let train_progs =
  [
    paper_prog ~size:train_size ~iters:3 Halo_ml.Linear_reg.benchmark;
    paper_prog ~size:train_size ~iters:1 Halo_ml.Multivariate_reg.benchmark;
  ]

(* Abort with [Eval.addcc/subcc: scale mismatch] on [Lattice_backend]. *)
let failing_progs =
  List.map
    (paper_prog ~size:train_size ~iters:1)
    [
      Halo_ml.Polynomial_reg.benchmark;
      Halo_ml.Logistic_reg.benchmark;
      Halo_ml.Kmeans.benchmark;
      Halo_ml.Svm.benchmark;
    ]

let paper_slots = 1024
let paper_size = 64
let paper_iters = 5

let paper_progs () =
  List.map (paper_prog ~slots:paper_slots ~size:paper_size ~iters:paper_iters) Ml.all

type t = {
  id : string;
  why : string;
  config : string;
  round : seed:int -> round:int -> round;
}

(* Every per-round seed derives from the run's seed and the round. *)
let round_seed ~seed ~round = (seed * 1000) + round

(* ---- train-lattice ---- *)

let failure_sites : (string, string) Hashtbl.t = Hashtbl.create 4

(* One attempt of a program that aborts today: [true] when it failed.  Its
   inputs do not depend on the run's seed, it runs on the raw backend, and
   nothing of it enters a timed or counted figure. *)
let attempt_failing keys (p, compiled) =
  let inputs = p.inputs ~seed:0 in
  match Timed.Lattice_raw.run keys ~bindings:p.bindings ~inputs compiled with
  | outs, _ ->
    Check.record
      (Check.within ~what:(p.name ^ " on lattice") ~bound:p.lattice_bound
         (p.error ~expected:(p.reference inputs) ~actual:outs));
    false
  | exception Halo_error.Backend_error { site; reason } ->
    Hashtbl.replace failure_sites p.name
      (Halo_error.site_to_string site ^ ": " ^ reason);
    true

(* One paper program's share of a round: compiled under all five strategies
   (HALO and DaCapo timed), tuned twice (a run has only a few rounds, and a
   tune of a paper program is one long sample), and every result simulated
   on [Ref_backend]; the HALO compile and its run come first. *)
let paper_step ~seed ~set p =
  let halo, dacapo = compile_step ~reps:3 ~set p in
  let others =
    Trace.phase "compile" (fun () ->
        List.map
          (fun strategy -> (strategy, compile_checked ~strategy p))
          [ Strategy.Type_matched; Strategy.Packing; Strategy.Packing_unrolling ])
  in
  tune_step ~reps:2 p;
  let runs =
    Trace.phase "sim" (fun () ->
        List.map
          (fun (strategy, c) ->
            let what = p.name ^ "/" ^ Strategy.to_string strategy in
            simulate ~seed ~what p c)
          ((Strategy.Halo, halo) :: (Strategy.Dacapo, dacapo) :: others))
  in
  sample "sim_s" ~key:p.name
    (List.fold_left (fun acc r -> add_time acc r.wall) no_time runs);
  (halo, runs)

(* Executions of each lattice program a round: its only samples of
   [exec_s], so more than one keeps the median of a run steady. *)
let lattice_reps = 2

let train =
  let compiled =
    lazy (List.map (compile_quiet ~strategy:Strategy.Halo) train_progs)
  in
  let failing =
    lazy
      (List.map
         (fun p -> (p, compile_quiet ~strategy:Strategy.Halo p))
         failing_progs)
  in
  let paper = lazy (paper_progs ()) in
  let round ~seed ~round =
    let seed = round_seed ~seed ~round in
    let keys = lattice_setup ~seed (Lazy.force compiled) in
    let paper = Lazy.force paper in
    let set = List.length paper in
    (* The lattice executions sit between the paper programs, so their
       samples and the compiler's spread over the round.  Each program runs
       [lattice_reps] times a round, on inputs of its own each time. *)
    let pending =
      ref
        (List.concat
           (List.init lattice_reps (fun k ->
                List.map
                  (fun pc -> (k, pc))
                  (List.combine train_progs (Lazy.force compiled)))))
    in
    let every = (set + List.length !pending - 1) / List.length !pending in
    let step i q =
      let step = paper_step ~seed ~set q in
      let lattice =
        match !pending with
        | (k, (p, c)) :: rest when (i + 1) mod every = 0 || i = set - 1 ->
          pending := rest;
          let run =
            Trace.phase "exec" (fun () ->
                execute ~keys ~seed:((seed * lattice_reps) + k) p c)
          in
          sample "exec_s" ~key:p.name run.wall;
          [ run ]
        | _ -> []
      in
      (step, lattice)
    in
    let steps, lattice = List.split (List.mapi step paper) in
    let lattice = List.concat lattice in
    record_key_cache keys lattice;
    record_stats lattice;
    let failed =
      List.length (List.filter (attempt_failing keys) (Lazy.force failing))
    in
    let sims = List.concat_map snd steps in
    counts ~compiled:(List.map fst steps) ~failed
      ~attempted:(List.length lattice + List.length failing_progs + List.length sims)
      (List.map (fun (_, runs) -> List.hd runs) steps)
  in
  {
    id = "train-lattice";
    why =
      "the paper's programs: Linear and Multivariate trained on real RLWE \
       ciphertexts, all seven compiled under five strategies, tuned and \
       simulated";
    config =
      Printf.sprintf
        "lattice: ring degree 2^%d, %d levels, slots %d, vector size %d, \
         Linear 3 iterations, Multivariate 1, each %d times a round, 4 \
         failing programs at 1 iteration; paper stage: slots %d, vector size \
         %d, %d iterations (PCA %dx8), 7 programs x 5 strategies"
        log_n max_level slots train_size lattice_reps paper_slots paper_size
        paper_iters paper_iters;
    round;
  }

(* ---- infer-lattice ---- *)

let requests_per_round = 12

let infer ~seed =
  let p = Matvec.prog ~seed () in
  let compiled = lazy (compile_quiet ~strategy:Strategy.Halo p) in
  let round ~seed ~round =
    let seed = round_seed ~seed ~round in
    let keys = lattice_setup ~seed [ Lazy.force compiled ] in
    let halo = ref (Lazy.force compiled) in
    let request i =
      (* The compiler and tuner samples sit between requests. *)
      if i mod 2 = 0 then begin
        halo := fst (compile_step ~reps:5 ~set:1 p);
        tune_step ~count:(i = 0) ~reps:1 p
      end;
      let seed = (seed * 100) + i and key = string_of_int i in
      Trace.phase "sim" (fun () ->
          let r = simulate ~seed ~what:"matvec/halo" p !halo in
          sample "sim_s" ~key r.wall);
      let run = Trace.phase "exec" (fun () -> execute ~keys ~seed p !halo) in
      sample "exec_s" ~key run.wall;
      run
    in
    let runs = List.init requests_per_round request in
    record_key_cache keys runs;
    record_stats runs;
    counts ~compiled:[ !halo ] ~attempted:requests_per_round ~failed:0 runs
  in
  {
    id = "infer-lattice";
    why =
      "encrypted inference requests in a closed loop: hoisted rotation \
       groups and lazy rot_sum do the work";
    config =
      Printf.sprintf
        "ring degree 2^%d, %d levels, slots %d; one client, closed loop, %d \
         requests a round; %d-vector, %d loop iterations of bands %s"
        log_n max_level slots requests_per_round Matvec.dim Matvec.layers
        (String.concat "," (List.map string_of_int Matvec.bands));
    round;
  }

let find ~seed = function
  | "train-lattice" -> Some train
  | "infer-lattice" -> Some (infer ~seed)
  | _ -> None

let names = [ "train-lattice"; "infer-lattice" ]
