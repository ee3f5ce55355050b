"""Radio labelings of graphs: checks, consecutive orderings of Cartesian
powers of complete graphs, exhaustive search oracles, and impossibility
thresholds for high powers."""

from .bounds import (
    HAS_CONSECUTIVE,
    NO_CONSECUTIVE,
    UNKNOWN,
    ThresholdReport,
    threshold_report,
    threshold_report_params,
    threshold_s,
    threshold_s_complete,
    verdict,
)
from .errors import (
    ArityMismatchError,
    DisconnectedError,
    IncompleteLabelingError,
    IndexOutOfRangeError,
    InvalidParameterError,
    KOutOfRangeError,
    ParameterOutOfRangeError,
    RadioLabelError,
    SelfLoopError,
    SizeLimitExceededError,
    TooLargeError,
)
from .graphs import (
    DEFAULT_SIZE_CAP,
    Graph,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    cartesian_power,
    cartesian_product,
    complete,
    cycle,
    decode_index,
    encode_coordinates,
    format_edge_list,
    parse_edge_list,
    path,
    petersen,
    read_edge_list,
    write_edge_list,
)
from .knt import (
    first_row_matrix,
    flat_indices,
    knt_ordering,
    knt_ordering_matrix,
    knt_ordering_recursive,
)
from .labeling import (
    Labeling,
    Violation,
    check_consecutive_ordering,
    check_k_radio,
    check_radio,
    induced_labeling,
    is_consecutive,
    validate_ordering,
)
from .search import (
    EXACT,
    EXHAUSTED,
    TIMEOUT,
    WITNESS_FOUND,
    SearchResult,
    exact_radio_number,
    find_consecutive_ordering,
    verify_witness,
)

__version__ = "0.1.0"
