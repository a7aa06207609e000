package repro.clean

import repro.core.ErrorType
import repro.core.ErrorType._

/** Registry of cleaning methods per error type (paper Table 2).
  *
  * For missing values the registry returns the six imputation combos; the
  * deletion repair is the comparison baseline (the "B" arm of Table 5) and
  * is exposed separately as [[MissingValues.Deletion]].
  */
object CleaningMethods {

  def forError(e: ErrorType): Seq[Cleaner] = e match {
    case MissingValues   => repro.clean.MissingValues.imputers
    case Outliers        => repro.clean.Outliers.cleaners
    case Duplicates      => Seq(repro.clean.Duplicates)
    case Inconsistencies => Seq(repro.clean.Inconsistencies)
    case Mislabels       => Seq(repro.clean.Mislabels)
  }
}
