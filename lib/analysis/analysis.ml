(** Static circuit analysis: located diagnostics, a dataflow linter, a
    multi-pass abstract interpreter (Clifford domain, interaction graph,
    cancellation structure, cost profiles), and the scheme-applicability
    classifier used by the verify pre-flight. *)

module Diagnostic = Diagnostic
module Rules = Rules
module Dataflow = Dataflow
module Lint = Lint
module Clifford = Clifford
module Interact = Interact
module Cancel = Cancel
module Cost = Cost
module Classify = Classify
module Report = Report

let lint = Lint.run

let classify = Classify.classify

let cost_profile = Cost.profile
