(* Correctness checks on the program's outputs.

   Each check compares against something computed apart from the compiler
   and the backends (a cleartext reference) or against an invariant the
   compiler promises, and returns [Error reason] when it does not hold.  A
   run records every error; any error makes it report [correct = false]. *)

open Halo

let rmse ~expected ~actual ~len =
  let acc = ref 0.0 in
  for i = 0 to len - 1 do
    let d = expected.(i) -. actual.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int len)

(* Worst per-output RMSE over the meaningful slots of each output. *)
let worst_rmse ~lens ~expected ~actual =
  if List.length expected <> List.length actual then infinity
  else
    List.fold_left2
      (fun acc (e, a) len -> Float.max acc (rmse ~expected:e ~actual:a ~len))
      0.0
      (List.combine expected actual)
      lens

(* Worst absolute slot error over the first [len] slots of each output. *)
let worst_abs ~len ~expected ~actual =
  if List.length expected <> List.length actual then infinity
  else
    List.fold_left2
      (fun acc e a ->
        let m = ref acc in
        for i = 0 to len - 1 do
          m := Float.max !m (Float.abs (e.(i) -. a.(i)))
        done;
        !m)
      0.0 expected actual

(* Worst error seen per check, with its bound, for the run's summary. *)
let observed : (string, float * float) Hashtbl.t = Hashtbl.create 64

let within ~what ~bound err =
  let worst =
    match Hashtbl.find_opt observed what with
    | Some (w, _) -> Float.max w err
    | None -> err
  in
  Hashtbl.replace observed what (worst, bound);
  (* [not (err <= bound)] also rejects NaN. *)
  if not (err <= bound) then
    Error (Printf.sprintf "%s: error %.3e exceeds bound %.1e" what err bound)
  else Ok ()

let typechecks ~what prog =
  match Typecheck.verify prog with
  | Ok () -> Ok ()
  | Error e -> Error (Printf.sprintf "%s: Typecheck.verify: %s" what e)

(* The tuned plan's predicted total must not exceed any fixed strategy's:
   the search space contains every fixed point. *)
let tuned_not_worse ~what (r : Halo_tune.Tuner.result) =
  let tuned = r.r_plan.Halo_tune.Plan.p_predicted_us in
  match
    List.find_opt
      (fun (_, (b : Halo_tune.Predict.breakdown)) -> tuned > b.b_total_us)
      r.r_fixed
  with
  | None -> Ok ()
  | Some (s, b) ->
    Error
      (Printf.sprintf "%s: tuned plan predicts %.1f us, above %s's %.1f us"
         what tuned (Strategy.to_string s) b.b_total_us)

let errors : string list ref = ref []
let record = function Ok () -> () | Error e -> errors := e :: !errors
