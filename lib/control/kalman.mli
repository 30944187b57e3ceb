(** Steady-state Kalman filter design.

    The LQG controllers of the paper pair an LQR state feedback with a
    state estimator; the steady-state (stationary) filter gain is
    computed from the dual DARE:

    {v Σ = A Σ Aᵀ − A Σ Cᵀ (Rv + C Σ Cᵀ)⁻¹ C Σ Aᵀ + Qw
   L = Σ Cᵀ (C Σ Cᵀ + Rv)⁻¹ v}

    where Qw is the process-noise covariance and Rv the measurement-noise
    covariance. *)

open Spectr_linalg

type design = {
  l : Matrix.t;  (** n×p filter gain (for the measurement update). *)
  sigma : Matrix.t;  (** Steady-state a-priori error covariance. *)
}

type error = Riccati_failed of Riccati.error | Bad_covariances of string

val pp_error : Format.formatter -> error -> unit

val design :
  a:Matrix.t ->
  c:Matrix.t ->
  qw:Matrix.t ->
  rv:Matrix.t ->
  (design, error) result

val correct : l:Matrix.t -> c:Matrix.t -> xhat:Matrix.t -> y:Matrix.t -> Matrix.t
(** Measurement update  x̂ ← x̂ + L (y − C x̂).  The tick path runs the
    same update inside {!Mimo.step_into}'s fused kernel, operation for
    operation; this allocating form is its reference. *)

