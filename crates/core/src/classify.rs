//! The error-classification loop (§III-D).
//!
//! Raw failures surface at several layers — response extraction, JSON
//! parsing, schema interpretation, structural validation, simulation —
//! and the benchmark maps each of them onto the Table II taxonomy so the
//! feedback prompt can name the category instead of dumping "abstract
//! error messages" on the model.

use picbench_netlist::extract::{ExtractError, ExtractedPayload};
use picbench_netlist::json::{JsonError, JsonErrorKind};
use picbench_netlist::{FailureType, SchemaError, ValidationIssue};
use picbench_sim::SimError;

/// Classifies a failure to locate any JSON at all.
pub fn classify_extract_error(err: &ExtractError) -> ValidationIssue {
    ValidationIssue::new(
        FailureType::OtherSyntax,
        format!(
            "No JSON netlist could be located in the response ({}).",
            err.reason
        ),
    )
}

/// Classifies extra material around the JSON payload.
pub fn classify_extra_content(payload: &ExtractedPayload) -> Option<ValidationIssue> {
    if !payload.has_extra_content() {
        return None;
    }
    let mut what = Vec::new();
    if payload.had_code_fence {
        what.push("markdown code fences".to_string());
    }
    if let Some(extra) = &payload.extra_content {
        let preview: String = extra.chars().take(60).collect();
        what.push(format!("surrounding text {preview:?}"));
    }
    Some(ValidationIssue::new(
        FailureType::ExtraJsonContent,
        format!(
            "The result section must contain only the JSON netlist, but it also contains {}.",
            what.join(" and ")
        ),
    ))
}

/// Classifies a JSON parse failure.
pub fn classify_json_error(err: &JsonError) -> ValidationIssue {
    let failure = match err.kind {
        // Comments and trailing prose are the "extra contents" signature.
        JsonErrorKind::CommentFound | JsonErrorKind::TrailingContent => {
            FailureType::ExtraJsonContent
        }
        _ => FailureType::OtherSyntax,
    };
    ValidationIssue::new(failure, format!("JSON error: {err}."))
}

/// Classifies a schema-level failure.
pub fn classify_schema_error(err: &SchemaError) -> ValidationIssue {
    let failure = match err {
        // A non-string model binding is the instances/models mix-up.
        SchemaError::ModelRefNotString { .. } => FailureType::InstancesModelsConfusion,
        // Malformed "instance,port" strings are invalid mappings.
        SchemaError::BadPortRef { .. } => FailureType::WrongPort,
        // Oversized designs, missing sections and wrong node types.
        _ => FailureType::OtherSyntax,
    };
    ValidationIssue::new(failure, format!("Schema error: {err}"))
}

/// Classifies a simulation-time failure (model parameter rejection,
/// singular systems, numerical blow-ups).
pub fn classify_sim_error(err: &SimError) -> ValidationIssue {
    ValidationIssue::new(
        FailureType::OtherSyntax,
        format!("Simulation error: {err}."),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::extract::extract_payload;
    use picbench_netlist::json;

    #[test]
    fn comment_maps_to_extra_content() {
        let err = json::parse("{\n// hi\n}").unwrap_err();
        let issue = classify_json_error(&err);
        assert_eq!(issue.failure, FailureType::ExtraJsonContent);
    }

    #[test]
    fn truncation_maps_to_other_syntax() {
        let err = json::parse("{\"a\": ").unwrap_err();
        let issue = classify_json_error(&err);
        assert_eq!(issue.failure, FailureType::OtherSyntax);
    }

    #[test]
    fn trailing_content_maps_to_extra_content() {
        let err = json::parse("{} also this").unwrap_err();
        assert_eq!(
            classify_json_error(&err).failure,
            FailureType::ExtraJsonContent
        );
    }

    #[test]
    fn swapped_models_schema_error_maps_to_confusion() {
        let err = SchemaError::ModelRefNotString {
            component: "mmi1x2".into(),
            found: "object",
        };
        assert_eq!(
            classify_schema_error(&err).failure,
            FailureType::InstancesModelsConfusion
        );
    }

    #[test]
    fn bad_portref_maps_to_wrong_port() {
        let err = SchemaError::BadPortRef {
            path: "netlist.connections".into(),
            text: "mmi1".into(),
        };
        assert_eq!(classify_schema_error(&err).failure, FailureType::WrongPort);
    }

    #[test]
    fn oversized_section_maps_to_other_syntax() {
        let err = SchemaError::TooLarge {
            path: "netlist.instances".into(),
            count: 100_000,
            limit: 1024,
        };
        let issue = classify_schema_error(&err);
        assert_eq!(issue.failure, FailureType::OtherSyntax);
        assert_eq!(
            issue.message,
            "Schema error: 'netlist.instances' holds 100000 entries, more than the limit of 1024"
        );
    }

    #[test]
    fn fenced_payload_is_extra_content() {
        let payload = extract_payload("<result>```json\n{}\n```</result>").unwrap();
        let issue = classify_extra_content(&payload).unwrap();
        assert_eq!(issue.failure, FailureType::ExtraJsonContent);
        assert!(issue.message.contains("code fences"));
    }

    #[test]
    fn clean_payload_has_no_extra_issue() {
        let payload = extract_payload("<result>{}</result>").unwrap();
        assert!(classify_extra_content(&payload).is_none());
    }

    #[test]
    fn missing_json_is_other_syntax() {
        let err = extract_payload("I refuse.").unwrap_err();
        assert_eq!(
            classify_extract_error(&err).failure,
            FailureType::OtherSyntax
        );
    }
}
