//! Graphviz DOT export for ADGs.

use std::fmt::Write as _;

use crate::{Adg, NodeKind};

impl Adg {
    /// Renders the graph in Graphviz DOT format.
    ///
    /// Node shapes distinguish component kinds (PEs are boxes, switches
    /// diamonds, memories cylinders, sync elements trapezia, the control
    /// core a double octagon); dynamic-scheduled elements are drawn dashed.
    ///
    /// # Example
    ///
    /// ```
    /// use dsagen_adg::presets;
    ///
    /// let dot = presets::cca().to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name());
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [fontname=\"monospace\"];");
        for node in self.nodes() {
            let (shape, extra) = match &node.kind {
                NodeKind::Pe(pe) => (
                    "box",
                    if pe.scheduling.is_dynamic() {
                        ",style=dashed"
                    } else {
                        ""
                    },
                ),
                NodeKind::Switch(sw) => (
                    "diamond",
                    if sw.scheduling.is_dynamic() {
                        ",style=dashed"
                    } else {
                        ""
                    },
                ),
                NodeKind::Delay(_) => ("cds", ""),
                NodeKind::Sync(_) => ("trapezium", ""),
                NodeKind::Memory(_) => ("cylinder", ""),
                NodeKind::Control(_) => ("doubleoctagon", ""),
            };
            let label = node
                .label
                .clone()
                .unwrap_or_else(|| format!("{}:{}", node.kind.kind_name(), node.id()));
            let _ = writeln!(
                out,
                "  {} [label=\"{}\",shape={}{}];",
                node.id(),
                label,
                shape,
                extra
            );
        }
        for edge in self.edges() {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\"];",
                edge.src, edge.dst, edge.width
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Adg, CtrlSpec, MemSpec, OpSet, PeSpec, Scheduling, Sharing};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut adg = Adg::new("dot-test");
        let c = adg.add_control(CtrlSpec::new());
        let m = adg.add_memory(MemSpec::main_memory());
        adg.add_link(c, m).unwrap();
        let dot = adg.to_dot();
        assert!(dot.contains("digraph \"dot-test\""));
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("cylinder"));
        assert!(dot.contains("doubleoctagon"));
    }

    #[test]
    fn dynamic_pes_are_dashed() {
        let mut adg = Adg::new("d");
        adg.add_pe(PeSpec::new(
            Scheduling::Dynamic,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        assert!(adg.to_dot().contains("style=dashed"));
    }

    #[test]
    fn labels_override_default_names() {
        let mut adg = Adg::new("l");
        adg.add_labeled(crate::NodeKind::Control(CtrlSpec::new()), "my-control-core");
        assert!(adg.to_dot().contains("my-control-core"));
    }
}
