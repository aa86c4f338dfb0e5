//! Campaign files: a TOML-subset document listing multiple specs with
//! per-spec overrides, run as one batch (`pamdc campaign <file>`) and
//! emitted as one merged CSV/JSON.
//!
//! ```text
//! name = "paper-evaluation"
//!
//! [[runs]]
//! spec = "fig6"                         # builtin name or spec path
//!
//! [[runs]]
//! spec = "fig6"
//! name = "fig6-hot"                     # report label override
//! params = ["workload.load_scale=1.5"]  # same syntax as --param
//! hours = 4                             # horizon override
//! ```
//!
//! `spec` resolves like the CLI's positional spec argument: a file path
//! (relative to the campaign file's directory) first, then a built-in
//! registry name. `params` entries apply in order via
//! [`ScenarioSpec::with_params`], so later overrides win.

use crate::schema::{at_least, check_record, fields, read_record, Check, Field, Record, REQ};
use crate::spec::{ScenarioSpec, SpecError};
use crate::toml;

/// One entry of a campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignRun {
    /// Spec reference: file path (campaign-relative) or built-in name.
    pub spec: String,
    /// Report-name override (`None` = the spec's own name; entries
    /// running the same spec twice want distinct labels).
    pub name: Option<String>,
    /// `key=value` overrides, applied in order.
    pub params: Vec<String>,
    /// Simulated-horizon override.
    pub hours: Option<u64>,
}

/// A parsed campaign file.
#[derive(Clone, Debug, PartialEq)]
pub struct Campaign {
    /// Campaign name (defaults to `"campaign"`).
    pub name: String,
    /// The runs, in file order.
    pub runs: Vec<CampaignRun>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            name: "campaign".into(),
            runs: Vec::new(),
        }
    }
}

impl Record for Campaign {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "name" => name: Check::Any, 0, "Campaign name.";
        "" "runs" => runs: Check::Any, 0, "The runs, in file order.";
    };
}

impl Record for CampaignRun {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "spec" => spec: Check::Any, REQ, "Spec file (campaign-relative) or builtin name.";
        "" "name" => name: Check::Any, 0, "Report-name override.";
        "" "params" => params: Check::Text(|p| p.contains('='), "key=value"), 0, "Overrides, `--param` syntax, applied in order.";
        "" "hours" => hours: at_least(1.0), 0, "Simulated-horizon override.";
    };
}

impl Campaign {
    /// Parses a campaign document. Unknown keys are errors, same as
    /// spec parsing.
    pub fn parse(text: &str) -> Result<Campaign, SpecError> {
        let campaign: Campaign = read_record(toml::parse(text)?, "")?;
        check_record(&campaign, "")?;
        if campaign.runs.is_empty() {
            return Err(SpecError("campaign lists no [[runs]]".into()));
        }
        Ok(campaign)
    }
}

/// Applies one run's overrides to its loaded base spec.
pub fn apply_overrides(base: &ScenarioSpec, run: &CampaignRun) -> Result<ScenarioSpec, SpecError> {
    // Every entry holds a `=`: the `params` row checks it.
    let params: Vec<(&str, &str)> = (run.params.iter())
        .filter_map(|p| p.split_once('='))
        .map(|(key, value)| (key.trim(), value.trim()))
        .collect();
    let mut spec = base.with_params(&params)?;
    if let Some(hours) = run.hours {
        spec.run.hours = hours;
    }
    if let Some(name) = &run.name {
        spec.name = name.clone();
    }
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
name = "demo"

[[runs]]
spec = "fig6"

[[runs]]
spec = "fig6"
name = "fig6-hot"
params = ["workload.load_scale=1.5", "seed=9"]
hours = 4
"#;

    #[test]
    fn parses_runs_in_order() {
        let c = Campaign::parse(DOC).expect("parse");
        assert_eq!(c.name, "demo");
        assert_eq!(c.runs.len(), 2);
        assert_eq!(c.runs[0].spec, "fig6");
        assert_eq!(c.runs[0].params, Vec::<String>::new());
        assert_eq!(c.runs[1].name.as_deref(), Some("fig6-hot"));
        assert_eq!(c.runs[1].hours, Some(4));
    }

    #[test]
    fn overrides_apply_in_order() {
        let c = Campaign::parse(DOC).unwrap();
        let base = crate::registry::find("fig6").unwrap().spec;
        let spec = apply_overrides(&base, &c.runs[1]).expect("apply");
        assert_eq!(spec.name, "fig6-hot");
        assert_eq!(spec.workload.load_scale, 1.5);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.run.hours, 4);
        // The base spec is untouched.
        assert_eq!(base.seed, 7);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Campaign::parse("").is_err(), "no runs");
        assert!(Campaign::parse("[[runs]]\n").is_err(), "spec required");
        assert!(
            Campaign::parse("[[runs]]\nspec = \"fig6\"\nparams = [\"noequals\"]").is_err(),
            "params must be key=value"
        );
        assert!(
            Campaign::parse("[[runs]]\nspec = \"fig6\"\nfrobnicate = 1").is_err(),
            "unknown keys fail loudly"
        );
    }
}
