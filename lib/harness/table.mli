(** Aligned plain-text tables and ASCII series "figures" for the
    experiment reports (every table and figure in EXPERIMENTS.md is
    printed through this module, so outputs are uniform and diffable). *)

type t

(** [create ~title ~columns] starts a table. *)
val create : title:string -> columns:string list -> t

(** Append a row; short rows are padded with empty cells.  A row with
    {e more} cells than columns is a bug in the experiment, not a
    formatting matter, so it raises [Invalid_argument] rather than
    silently dropping data. *)
val add_row : t -> string list -> unit

(** Render with a title rule and aligned columns. *)
val to_string : t -> string

val print : t -> unit

(** [series ~title ~x_label ~y_label points] renders an ASCII chart of the
    [(x, y)] points (plus the raw values), for the "figure" experiments. *)
val series :
  title:string ->
  x_label:string ->
  y_label:string ->
  (float * float) list ->
  string

(** Render several labelled series on a shared ASCII chart. *)
val multi_series :
  title:string ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
