(* Shows that each of the benchmark's correctness checks can fail: a right
   result must pass and a wrong one must be rejected.  Runs under
   [dune runtest] at sizes small enough to take a second or two. *)

open Perfbench_lib
open Halo

let failures = ref 0

let expect what ~accepted result =
  match (result, accepted) with
  | Ok (), true -> Printf.printf "ok: %s is accepted\n" what
  | Error e, false -> Printf.printf "ok: %s is rejected (%s)\n" what e
  | Ok (), false ->
    incr failures;
    Printf.printf "FAIL: %s is accepted\n" what
  | Error e, true ->
    incr failures;
    Printf.printf "FAIL: %s is rejected: %s\n" what e

(* Every element of the first output moved by [by]. *)
let perturb ~by = function
  | o :: rest -> Array.map (fun v -> v +. by) o :: rest
  | [] -> []

let check_outputs ~name ~bound (p : Stages.prog) ~inputs ~outs =
  let check ~expected actual =
    Check.within ~what:name ~bound (p.error ~expected ~actual)
  in
  let expected = p.reference inputs in
  expect (name ^ " output") ~accepted:true (check ~expected outs);
  expect
    (name ^ " output perturbed past its bound")
    ~accepted:false
    (check ~expected (perturb ~by:(10.0 *. bound) outs));
  expect
    (name ^ " output against a wrong cleartext reference")
    ~accepted:false
    (check ~expected:(p.reference (p.inputs ~seed:99)) outs)

(* The train-lattice check: RMSE of a paper program run on
   Ref_backend against Bench_def.reference. *)
let paper () =
  let p =
    Workloads.paper_prog ~slots:64 ~size:8 ~iters:2
      Halo_ml.Linear_reg.benchmark
  in
  let compiled = Stages.compile ~strategy:Strategy.Halo p in
  let inputs = p.inputs ~seed:7 in
  let outs, _ =
    Timed.run_ref (Stages.ref_state ~seed:3 compiled) ~bindings:p.bindings
      ~inputs compiled
  in
  check_outputs ~name:"Linear on ref" ~bound:p.ref_bound p ~inputs ~outs;
  expect "compiled Linear under Typecheck.verify" ~accepted:true
    (Check.typechecks ~what:"Linear" compiled);
  expect "uncompiled Linear under Typecheck.verify" ~accepted:false
    (Check.typechecks ~what:"Linear source" p.source);
  let r, _ = Halo_tune.Tuner.tune ~bindings:p.bindings ~name:p.name p.source in
  expect "tuned plan against the fixed strategies" ~accepted:true
    (Check.tuned_not_worse ~what:"Linear" r);
  let cheaper (s, (b : Halo_tune.Predict.breakdown)) =
    (s, { b with b_total_us = r.r_plan.p_predicted_us /. 2.0 })
  in
  expect "tuned plan above a fixed strategy's prediction" ~accepted:false
    (Check.tuned_not_worse ~what:"Linear"
       { r with r_fixed = List.map cheaper r.r_fixed })

(* The infer-lattice check: max slot error of the matrix-vector stack on
   real ciphertexts (a small ring) against the benchmark's own product. *)
let matvec () =
  let params =
    Halo_ckks.Params.make ~log_n:8 ~max_level:Stages.max_level ~base_bits:31
      ~scale_bits:27 ()
  in
  let keys = Halo_ckks.Keys.keygen ~seed:5 params in
  let p = Workloads.Matvec.prog ~slots:params.slots ~seed:11 () in
  let compiled = Stages.compile ~strategy:Strategy.Halo p in
  let inputs = p.inputs ~seed:7 in
  let outs, _ = Timed.run_lattice keys ~bindings:p.bindings ~inputs compiled in
  check_outputs ~name:"matvec on lattice" ~bound:p.lattice_bound p ~inputs
    ~outs

let () =
  paper ();
  matvec ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
