open Spectr_platform

module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_actuations = Obs.Counters.counter "manager.actuations"
let c_sanitized = Obs.Counters.counter "manager.commands_sanitized"

type checkpoint = { variant : string; payload : string }
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

(* Payloads are Marshal-ed plain data; the variant tag is what guards a
   checkpoint from being restored into the wrong manager kind. *)
let require_variant ~expect c =
  if c.variant <> expect then
    invalid_arg
      (Printf.sprintf "Manager.restore: checkpoint for %S, manager is %S"
         c.variant expect)

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
