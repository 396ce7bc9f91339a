(** Logical/physical query plans.

    Plans are produced by {!Planner} and evaluated by {!Exec}.
    Expressions inside plan nodes are resolved against the node's
    input schema when the node is instantiated, not per row. *)

type t =
  | Scan of { table : string; alias : string }
      (** Base-table scan.  The output schema qualifies every
          attribute as ["alias.attribute"]. *)
  | Filter of { input : t; pred : Sql.Ast.expr }
  | Project of { input : t; items : (Sql.Ast.expr * string) list }
      (** Computes each expression; output attribute names are the
          given (unique) names. *)
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Sql.Ast.expr list;
      right_keys : Sql.Ast.expr list;
    }
      (** Equi-join; builds a hash table on the right input. *)
  | Index_join of {
      left : t;
      table : string;
      alias : string;
      left_keys : Sql.Ast.expr list;
      right_attrs : string list;
          (** unqualified attribute names of [table]; the first one
              must carry a persistent index *)
    }
      (** Probes a persistent index of the base table [table] instead
          of building a transient hash table. *)
  | Left_outer_join of {
      left : t;
      right : t;
      on : Sql.Ast.expr;
    }
      (** SQL LEFT OUTER JOIN: every left row is kept; right columns
          are NULL when no right row satisfies [on] (evaluated over
          the concatenated row).  The executor uses a hash path when
          [on] contains an equality splitting across the inputs. *)
  | Cross of t * t
  | Aggregate of {
      input : t;
      group_by : Sql.Ast.expr list;
      items : (Sql.Ast.expr * string) list;
      having : Sql.Ast.expr option;
    }
  | Sort of { input : t; keys : (Sql.Ast.expr * bool) list }
      (** [(expr, desc)] sort keys, leftmost major. *)
  | Distinct of t
  | Limit of t * int

val pp : Format.formatter -> t -> unit
(** EXPLAIN-style indented rendering. *)

val to_string : t -> string

val base_tables : t -> (string * string) list
(** [(table, alias)] pairs of all scans, left to right. *)

val chunk_friendly : t -> bool
(** True for nodes the chunked executor evaluates column-to-column:
    Scan, Filter, Project, and a Hash_join whose probe (left) side is
    itself chunk-friendly — a probe side produced by a row operator
    costs more to pivot than to join as rows.  Subtrees of such nodes
    fuse into a single columnar pipeline when the executor runs
    chunked with no spill configured. *)
