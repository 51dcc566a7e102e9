(* Timing wrappers around the program's layers, used only in a traced run.

   [Backend] wraps a [Backend.S] implementation: every operation is timed
   and counted under "<layer>.<op>", opens a span, and (for the lattice
   layer) is priced by the cost model's [host] profile at its operand level,
   so the table can show predicted over measured per op class.  The wrapped
   module is passed to [Interp.Make] exactly like the raw backend. *)

open Halo_runtime
module Cost = Halo_cost.Cost_model

let ops =
  [
    "encrypt"; "decrypt"; "addcc"; "subcc"; "addcp"; "multcc"; "multcp";
    "negate"; "rotate"; "rotate_many"; "rot_sum"; "rescale"; "modswitch";
    "bootstrap";
  ]

(* Op classes the cost model prices; the others (encryption, decryption,
   negation and the oracle bootstrap) have no model price to compare. *)
let priced_ops =
  [
    "addcc"; "subcc"; "addcp"; "multcc"; "multcp"; "rotate"; "rotate_many";
    "rot_sum"; "rescale"; "modswitch";
  ]

(* Time spent inside any wrapped backend call, for interpreter self time. *)
let backend_s = ref 0.0

let host_us f = Cost.with_profile Cost.host f

let nonzero offsets = List.length (List.filter (fun o -> o <> 0) offsets)

module Backend (B : Backend.S) (L : sig
  val layer : string
  val priced : bool
end) : Backend.S with type ct = B.ct and type state = B.state = struct
  include B

  let key op suffix = Printf.sprintf "%s.%s.%s" L.layer op suffix

  type acc = { s : float ref; n : float ref; pred : float ref; meas : float ref }

  let acc op =
    {
      s = Trace.cell (key op "s");
      n = Trace.cell (key op "n");
      pred = Trace.cell (Printf.sprintf "costmodel.%s.pred_us" op);
      meas = Trace.cell (Printf.sprintf "costmodel.%s.meas_s" op);
    }

  let accs = Hashtbl.create 16
  let () = List.iter (fun op -> Hashtbl.replace accs op (acc op)) ops

  let call op ?predict f =
    let a = Hashtbl.find accs op in
    let t0 = Trace.now () in
    let r = Trace.span (L.layer ^ "." ^ op) f in
    let dt = Trace.now () -. t0 in
    a.s := !(a.s) +. dt;
    a.n := !(a.n) +. 1.0;
    backend_s := !backend_s +. dt;
    (match predict with
     | Some p when L.priced ->
       a.pred := !(a.pred) +. host_us p;
       a.meas := !(a.meas) +. dt
     | _ -> ());
    r

  let at op st ct () = Cost.latency_us op ~level:(B.level st ct)

  let encrypt st ~level v = call "encrypt" (fun () -> B.encrypt st ~level v)
  let decrypt st ct = call "decrypt" (fun () -> B.decrypt st ct)

  let addcc st a b =
    call "addcc" ~predict:(at Cost.Addcc st a) (fun () -> B.addcc st a b)

  let subcc st a b =
    call "subcc" ~predict:(at Cost.Subcc st a) (fun () -> B.subcc st a b)

  let addcp st a v =
    call "addcp" ~predict:(at Cost.Addcp st a) (fun () -> B.addcp st a v)

  let multcc st a b =
    call "multcc" ~predict:(at Cost.Multcc st a) (fun () -> B.multcc st a b)

  let multcp st a v =
    call "multcp" ~predict:(at Cost.Multcp st a) (fun () -> B.multcp st a v)

  let negate st a = call "negate" (fun () -> B.negate st a)

  let rotate st ct ~offset =
    call "rotate" ~predict:(at Cost.Rotate st ct) (fun () ->
        B.rotate st ct ~offset)

  let rotate_many st ct ~offsets =
    let level = B.level st ct in
    let predict () =
      Cost.decompose_us ~level
      +. float_of_int (nonzero offsets)
         *. Cost.key_switch_us ~digits_cached:true ~level
    in
    call "rotate_many" ~predict (fun () -> B.rotate_many st ct ~offsets)

  let rot_sum st ct ~terms =
    let level = B.level st ct in
    let predict () =
      Cost.rot_sum_us ~lazy_switch:true
        ~weighted:(List.exists (fun (_, c) -> Option.is_some c) terms)
        ~members:(nonzero (List.map fst terms))
        ~level
    in
    call "rot_sum" ~predict (fun () -> B.rot_sum st ct ~terms)

  let rescale st a =
    call "rescale" ~predict:(at Cost.Rescale st a) (fun () -> B.rescale st a)

  let modswitch st ct ~down =
    call "modswitch" ~predict:(at Cost.Modswitch st ct) (fun () ->
        B.modswitch st ct ~down)

  let bootstrap st ct ~target =
    call "bootstrap" (fun () -> B.bootstrap st ct ~target)
end

module Lattice =
  Backend
    (Lattice_backend)
    (struct
      let layer = "lattice"
      let priced = true
    end)

module Ref =
  Backend
    (Halo_ckks.Ref_backend)
    (struct
      let layer = "ref"
      let priced = false
    end)

module Lattice_raw = Interp.Make (Lattice_backend)
module Lattice_timed = Interp.Make (Lattice)
module Ref_raw = Interp.Make (Halo_ckks.Ref_backend)
module Ref_timed = Interp.Make (Ref)

(* One encrypt -> execute -> decrypt through the interpreter.  In a traced
   run the wrapped backend is used and the interpreter's self time (its wall
   time minus the time inside backend calls) is accumulated. *)
let interp ~layer raw timed =
  if not !Trace.tracing then raw ()
  else begin
    let t0 = Trace.now () and b0 = !backend_s in
    let r = Trace.span "interp.run" timed in
    let self = Trace.now () -. t0 -. (!backend_s -. b0) in
    Trace.add "interp.self_s" self;
    Trace.add ("interp." ^ layer ^ ".self_s") self;
    r
  end

let run_lattice keys ~bindings ~inputs prog =
  interp ~layer:"lattice"
    (fun () -> Lattice_raw.run keys ~bindings ~inputs prog)
    (fun () -> Lattice_timed.run keys ~bindings ~inputs prog)

let run_ref st ~bindings ~inputs prog =
  interp ~layer:"ref"
    (fun () -> Ref_raw.run st ~bindings ~inputs prog)
    (fun () -> Ref_timed.run st ~bindings ~inputs prog)
