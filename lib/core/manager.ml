open Spectr_control
open Spectr_platform

module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_actuations = Obs.Counters.counter "manager.actuations"
let c_sanitized = Obs.Counters.counter "manager.commands_sanitized"

type checkpoint = {
  variant : string;
  supervisor : Supervisor.snapshot option;
  ctrls : Mimo.snapshot array;
  pids : Pid.snapshot array;
  guard : Guarded.snapshot option;
  phase : int;
}

type persist = { snapshot : unit -> checkpoint; restore : checkpoint -> unit }

type t = {
  name : string;
  step :
    now:float ->
    qos_ref:float ->
    envelope:float ->
    obs:Soc.observation ->
    Soc.t ->
    unit;
  persist : persist option;
}

type parts = {
  supervisor : Supervisor.t option;
  ctrls : Mimo.t array;
  pids : Pid.t array;
  guard : Guarded.t option;
  phase : int ref;
}

let leaf_parts ?(ctrls = [||]) ?(pids = [||]) () =
  { supervisor = None; ctrls; pids; guard = None; phase = ref 0 }

(* Snapshot copies every part out.  Restore checks the whole checkpoint
   before writing, then copies every part back in place without
   aliasing it, so one checkpoint can be restored any number of times;
   only a rejection allocates (its message). *)
let persist ~variant p =
  let snapshot () =
    {
      variant;
      supervisor = Option.map Supervisor.snapshot p.supervisor;
      ctrls = Array.map Mimo.snapshot p.ctrls;
      pids = Array.map Pid.snapshot p.pids;
      guard = Option.map Guarded.snapshot p.guard;
      phase = !(p.phase);
    }
  in
  let restore (c : checkpoint) =
    if
      c.variant <> variant
      || Array.length c.ctrls <> Array.length p.ctrls
      || Array.length c.pids <> Array.length p.pids
      || Option.is_some c.supervisor <> Option.is_some p.supervisor
      || Option.is_some c.guard <> Option.is_some p.guard
    then
      invalid_arg
        (Printf.sprintf "Manager.restore: checkpoint for %S, manager is %S"
           c.variant variant);
    (match (p.supervisor, c.supervisor) with
    | Some t, Some s -> Supervisor.restore t s
    | _ -> ());
    for i = 0 to Array.length p.ctrls - 1 do
      Mimo.restore p.ctrls.(i) c.ctrls.(i)
    done;
    for i = 0 to Array.length p.pids - 1 do
      Pid.restore p.pids.(i) c.pids.(i)
    done;
    (match (p.guard, c.guard) with
    | Some g, Some s -> Guarded.restore g s
    | _ -> ());
    p.phase := c.phase
  in
  { snapshot; restore }

let variant_tag name platform =
  if Design_flow.is_reference_platform platform then name
  else name ^ "@" ^ String.sub (Platform_desc.digest platform) 0 12

(* Non-finite or out-of-range core commands clamp to the nearest legal
   count — NaN conservatively to 1 — instead of silently becoming 0
   cores (which [int_of_float nan] produces). *)
let[@inline] cores_of ~max_cores cores =
  if Float.is_nan cores then 1
  else
    int_of_float
      (Float.round (Float.max 1. (Float.min (float_of_int max_cores) cores)))

let sanitize_cores ?(max_cores = 4) cores = cores_of ~max_cores cores

(* The one actuation path: sanitize, quantize and apply, nothing else.
   The command is read from the controller's float array, so no float
   crosses a module boundary boxed; the OPP travels to the SoC as an
   int.  [cluster] is the platform cluster index. *)
let apply_command soc cluster cmd ~pos =
  let cores = cmd.(pos + 1) in
  Obs.Counters.incr c_actuations;
  (if Obs.enabled () then
     (* Count commands in the garbage class the sanitizers exist for:
        non-finite or negative, not mere range clamping. *)
     let f_mhz = cmd.(pos) *. 1000. in
     if (not (Float.is_finite f_mhz)) || f_mhz < 0. || Float.is_nan cores then
       Obs.Counters.incr c_sanitized);
  let freq = Opp.resolve (Soc.opp_table soc cluster) cmd pos in
  let applied_freq = Soc.set_opp soc cluster freq in
  let n = cores_of ~max_cores:(Soc.cluster_cores soc cluster) cores in
  Soc.set_active_cores soc cluster n;
  applied_freq = freq && Soc.active_cores soc cluster = n
