//! Trace visualization (§3).
//!
//! The paper displays history with two X11 tools: *NTV* (whole trace,
//! zoom/pan) and *VK* from AIMS (scrolling animated window). Both render a
//! **time-space diagram**: one lane per process, a colored bar per
//! construct, a line segment per message from `(time_sent, source)` to
//! `(time_received, destination)`, and overlays for stoplines and
//! past/future frontiers.
//!
//! This crate reproduces those displays on two render targets:
//!
//! * [`ascii`] — terminal rendering of the same view model;
//! * [`svg`] — publication-style SVG, used by the `repro_fig*` harnesses
//!   to regenerate Figures 2, 3, 5, 6 and 8;
//!
//! plus the two interaction models ([`NtvView`], [`VkView`]) and graph
//! exporters in DOT and VCG format (Figures 4 and 9 — the paper fed xvcg).

pub mod ascii;
pub mod dot;
pub mod html;
pub mod ntv;
pub mod profile;
pub mod svg;
pub mod timeline;
pub mod vcg;
pub mod vk;

pub use ascii::render_ascii;
pub use html::render_html_report;
pub use ntv::NtvView;
pub use profile::render_rank_profile;
pub use svg::render_svg;
pub use timeline::{Bar, BarKind, MsgLine, Overlay, TimelineModel};
pub use vk::VkView;
