open Spectr_linalg

type design = { l : Matrix.t; sigma : Matrix.t }
type error = Riccati_failed of Riccati.error | Bad_covariances of string

let pp_error ppf = function
  | Riccati_failed e -> Format.fprintf ppf "Riccati: %a" Riccati.pp_error e
  | Bad_covariances s -> Format.fprintf ppf "bad covariances: %s" s

let design ~a ~c ~qw ~rv =
  let n = Matrix.rows a and p = Matrix.rows c in
  if Matrix.rows qw <> n || Matrix.cols qw <> n then
    Error (Bad_covariances "Qw must be n x n")
  else if Matrix.rows rv <> p || Matrix.cols rv <> p then
    Error (Bad_covariances "Rv must be p x p")
  else
    (* The estimation DARE is the control DARE on the dual system
       (A -> A', B -> C', Q -> Qw, R -> Rv). *)
    match
      Riccati.solve ~a:(Matrix.transpose a) ~b:(Matrix.transpose c) ~q:qw ~r:rv
        ()
    with
    | Error e -> Error (Riccati_failed e)
    | Ok sigma ->
        let ct = Matrix.transpose c in
        let s = Matrix.add (Matrix.mul (Matrix.mul c sigma) ct) rv in
        (* L = Σ C' S^-1  computed as  solve(S', (Σ C')')' *)
        let sig_ct = Matrix.mul sigma ct in
        let l =
          Matrix.transpose
            (Matrix.solve (Matrix.transpose s) (Matrix.transpose sig_ct))
        in
        Ok { l; sigma }

let correct ~l ~c ~xhat ~y =
  let innovation = Matrix.sub y (Matrix.mul c xhat) in
  Matrix.add xhat (Matrix.mul l innovation)
